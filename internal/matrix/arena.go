package matrix

import (
	"math/bits"
	"sync"
)

// The scratch arena recycles dense float64 buffers through size-classed
// sync.Pools so hot kernels stop allocating (and re-faulting) a fresh slice
// per invocation. It serves internal scratch only: buffers that never escape
// the kernel that borrowed them (MulChainMVV's dot vector; mulSS returns its
// dead dense accumulator when its capacity is a class size), so recycling is
// unconditionally safe. Buffers are zeroed on checkout, so results stay
// byte-identical at any parallelism. Matrices that are returned to a caller
// are plain allocations (NewDense).

const (
	// arenaMinBits/arenaMaxBits bound the pooled size classes: buffers of
	// 2^6..2^24 floats (512 B .. 128 MB). Outside the range the arena
	// falls through to plain make.
	arenaMinBits = 6
	arenaMaxBits = 24
)

var arenaPools [arenaMaxBits + 1]sync.Pool

// arenaBuf boxes a pooled slice. The boxes themselves cycle through
// bufHeaderPool so a steady-state get/put pair performs zero allocations —
// putting a bare slice into a sync.Pool would box it on every call.
type arenaBuf struct{ s []float64 }

var bufHeaderPool = sync.Pool{New: func() interface{} { return new(arenaBuf) }}

// arenaClass returns the size-class index for n floats, or -1 when n is
// outside the pooled range.
func arenaClass(n int) int {
	if n <= 0 {
		return -1
	}
	c := bits.Len(uint(n - 1)) // ceil(log2(n))
	if c < arenaMinBits {
		c = arenaMinBits
	}
	if c > arenaMaxBits {
		return -1
	}
	return c
}

// getFloats returns a zeroed slice of n floats, drawn from the arena when
// the size class is pooled.
func getFloats(n int) []float64 {
	c := arenaClass(n)
	if c < 0 {
		return make([]float64, n)
	}
	if v := arenaPools[c].Get(); v != nil {
		ab := v.(*arenaBuf)
		s := ab.s[:n]
		ab.s = nil
		bufHeaderPool.Put(ab)
		clear(s)
		return s
	}
	return make([]float64, n, 1<<c)
}

// putFloats returns a buffer to its pool. Only buffers whose capacity is an
// exact class size are accepted (anything else came from plain make).
func putFloats(s []float64) {
	c := cap(s)
	if c == 0 || c&(c-1) != 0 {
		return
	}
	b := bits.Len(uint(c)) - 1
	if b < arenaMinBits || b > arenaMaxBits {
		return
	}
	ab := bufHeaderPool.Get().(*arenaBuf)
	ab.s = s[:0]
	arenaPools[b].Put(ab)
}
