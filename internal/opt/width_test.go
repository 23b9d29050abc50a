package opt

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/scripts"
)

// TestWidthClampedView: the clamped view only lowers the allocation
// ceiling — down to the granted container size, never below MinAlloc, and
// never raising an already-lower ceiling.
func TestWidthClampedView(t *testing.T) {
	cc := conf.DefaultCluster()
	v := WidthClamped(cc, 2*conf.GB)
	if v.MaxAlloc != 2*conf.GB {
		t.Errorf("MaxAlloc %v, want 2GB", v.MaxAlloc)
	}
	if v.Nodes != cc.Nodes || v.MemPerNode != cc.MemPerNode || v.MinAlloc != cc.MinAlloc {
		t.Errorf("clamp changed more than the ceiling: %+v", v)
	}
	if v := WidthClamped(cc, 1*conf.KB); v.MaxAlloc != cc.MinAlloc {
		t.Errorf("tiny container: MaxAlloc %v, want MinAlloc %v", v.MaxAlloc, cc.MinAlloc)
	}
	small := cc
	small.MaxAlloc = 1 * conf.GB
	if v := WidthClamped(small, 4*conf.GB); v.MaxAlloc != 1*conf.GB {
		t.Errorf("clamp must never raise the ceiling: %v", v.MaxAlloc)
	}
}

// TestWidthClampedChoiceFits: optimizing under the clamped view yields a
// configuration whose container fits the granted size, so a malleable job's
// re-optimized plan always matches the allocation it holds.
func TestWidthClampedChoiceFits(t *testing.T) {
	hp := compileTestProgram(t, scripts.LinregDS())
	cc := conf.DefaultCluster()
	cont := 1 * conf.GB
	o := New(WidthClamped(cc, cont))
	o.Opts.Points = 5
	res := o.Optimize(hp).Res
	if need := conf.Bytes(float64(res.CP) * cc.ContainerOverhead); need > cont {
		t.Errorf("clamped search chose CP %v needing %v, over the %v container", res.CP, need, cont)
	}
}
