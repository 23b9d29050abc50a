package adapt

import "elasticml/internal/rt"

// freshEveryConsult rebuilds the scope and re-optimizes on every consult:
// it forgets the kept rebuild and the kept search before each one. It is
// the reference the reuse path must match.
type freshEveryConsult struct{ *Adapter }

func (f freshEveryConsult) Adapt(ctx *rt.AdaptContext) *rt.AdaptDecision {
	f.kept, f.last = rebuild{}, search{}
	return f.Adapter.Adapt(ctx)
}
