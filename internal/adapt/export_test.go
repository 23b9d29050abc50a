package adapt

import "elasticml/internal/rt"

// freshEveryConsult re-optimizes on every consult: it forgets the kept
// search before each one. It is the reference the reuse path must match.
type freshEveryConsult struct{ *Adapter }

func (f freshEveryConsult) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	f.last = search{}
	return f.Adapter.Adapt(ctx)
}
