package opt

import "elasticml/internal/conf"

// WidthClamped returns a cluster view for re-costing a program whose
// containers are already granted at contMem each: the allocation ceiling
// drops to the granted container size, so any configuration the optimizer
// chooses fits the allocation the job holds. Width changes of malleable
// jobs re-optimize under this view through the ordinary plan-cache path.
func WidthClamped(cc conf.Cluster, contMem conf.Bytes) conf.Cluster {
	if contMem < cc.MinAlloc {
		contMem = cc.MinAlloc
	}
	if cc.MaxAlloc > contMem {
		cc.MaxAlloc = contMem
	}
	return cc
}
