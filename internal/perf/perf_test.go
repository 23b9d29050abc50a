package perf

import (
	"testing"

	"elasticml/internal/conf"
)

func TestPrimitives(t *testing.T) {
	// 150MB at 150MB/s = 1s.
	if got := ReadTime(conf.Bytes(150*1e6), 1); got != 1 {
		t.Errorf("ReadTime = %v", got)
	}
	// dop scales down linearly.
	if got := ReadTime(conf.Bytes(150*1e6), 10); got != 0.1 {
		t.Errorf("ReadTime dop=10 = %v", got)
	}
	if got := ReadTime(conf.Bytes(150*1e6), 0); got != 1 {
		t.Errorf("ReadTime dop=0 should clamp to 1: %v", got)
	}
	if got := WriteTime(conf.Bytes(100*1e6), 1); got != 1 {
		t.Errorf("WriteTime = %v", got)
	}
	if got := ComputeTime(2e9, 1); got != 1 {
		t.Errorf("ComputeTime = %v", got)
	}
	if got := ComputeTime(-5, 1); got != 0 {
		t.Errorf("negative flops should clamp: %v", got)
	}
	if got := ShuffleTime(conf.Bytes(60*1e6), 1); got != 1 {
		t.Errorf("ShuffleTime = %v", got)
	}
}

func TestRelativeStructure(t *testing.T) {
	// Memory is faster than disk; writes slower than reads.
	if MemBandwidth <= ReadBandwidth {
		t.Error("memory should be faster than disk")
	}
	if WriteBandwidth > ReadBandwidth {
		t.Error("writes should not be faster than reads")
	}
	// MR job latency is substantial (the paper's small-data effect).
	if JobLatency < 5 {
		t.Error("job latency too small to reproduce latency-dominated jobs")
	}
}
