package perf

import (
	"testing"

	"elasticml/internal/conf"
)

func TestPrimitives(t *testing.T) {
	m := Default()
	// 150MB at 150MB/s = 1s.
	if got := m.ReadTime(conf.Bytes(150*1e6), 1); got != 1 {
		t.Errorf("ReadTime = %v", got)
	}
	// dop scales down linearly.
	if got := m.ReadTime(conf.Bytes(150*1e6), 10); got != 0.1 {
		t.Errorf("ReadTime dop=10 = %v", got)
	}
	if got := m.ReadTime(conf.Bytes(150*1e6), 0); got != 1 {
		t.Errorf("ReadTime dop=0 should clamp to 1: %v", got)
	}
	if got := m.WriteTime(conf.Bytes(100*1e6), 1); got != 1 {
		t.Errorf("WriteTime = %v", got)
	}
	if got := m.ComputeTime(2e9, 1); got != 1 {
		t.Errorf("ComputeTime = %v", got)
	}
	if got := m.ComputeTime(-5, 1); got != 0 {
		t.Errorf("negative flops should clamp: %v", got)
	}
	if got := m.ShuffleTime(conf.Bytes(60*1e6), 1); got != 1 {
		t.Errorf("ShuffleTime = %v", got)
	}
}

func TestRelativeStructure(t *testing.T) {
	m := Default()
	// Memory is faster than disk; writes slower than reads.
	if m.MemBandwidth <= m.ReadBandwidth {
		t.Error("memory should be faster than disk")
	}
	if m.WriteBandwidth > m.ReadBandwidth {
		t.Error("writes should not be faster than reads")
	}
	// MR job latency is substantial (the paper's small-data effect).
	if m.JobLatency < 5 {
		t.Error("job latency too small to reproduce latency-dominated jobs")
	}
}
