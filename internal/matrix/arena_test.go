package matrix

import "testing"

// dirtyScratch cycles a buffer full of junk through the size class that
// serves n floats, so the next checkout draws recycled storage.
func dirtyScratch(n int) {
	s := getFloats(n)
	for i := range s {
		s[i] = 7
	}
	putFloats(s)
}

// TestArenaByteIdentical: the determinism contract extends to the scratch
// arena — a kernel that borrows recycled (and re-zeroed) scratch at any
// parallelism produces exactly the bits of parallelism 1 on fresh scratch.
func TestArenaByteIdentical(t *testing.T) {
	x := dn(120, 17, 3)
	xs := sprnd(120, 17, 5)
	v := dn(17, 1, 4)
	want := runAt(1, func() *Matrix { return MulChainMVV(x, v, nil) })
	wantS := runAt(1, func() *Matrix { return MulChainMVV(xs, v, nil) })
	for _, workers := range []int{1, 4} {
		for warm := 0; warm < 3; warm++ {
			dirtyScratch(x.rows)
			sameBits(t, "mmchain dense", runAt(workers, func() *Matrix { return MulChainMVV(x, v, nil) }), want)
			dirtyScratch(x.rows)
			sameBits(t, "mmchain sparse", runAt(workers, func() *Matrix { return MulChainMVV(xs, v, nil) }), wantS)
		}
	}
}

// TestArenaRecycledBuffersZeroed: getFloats must hand out all-zero storage
// even when it comes from a recycled buffer full of old values. A sync.Pool
// may drop a buffer, so the loop also checks that recycling happens at all.
func TestArenaRecycledBuffersZeroed(t *testing.T) {
	recycled := 0
	for try := 0; try < 100; try++ {
		old := getFloats(900)
		for i := range old {
			old[i] = 7
		}
		putFloats(old)
		fresh := getFloats(900)
		if &fresh[0] == &old[0] {
			recycled++
		}
		for i, v := range fresh {
			if v != 0 {
				t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
			}
		}
	}
	if recycled == 0 {
		t.Error("no buffer came back from the pool in 100 tries")
	}
}

// TestArenaRecycleSafety: putFloats must ignore what did not come from the
// arena — nil, a capacity that is no class size, a class below the pooled
// range — so getFloats only ever hands out class-sized storage.
func TestArenaRecycleSafety(t *testing.T) {
	putFloats(nil)
	putFloats(make([]float64, 100)) // capacity 100: not a power of two
	putFloats(make([]float64, 32))  // a power of two below the smallest class
	for _, n := range []int{32, 100} {
		for try := 0; try < 20; try++ {
			if s := getFloats(n); cap(s) != 1<<arenaClass(n) {
				t.Fatalf("getFloats(%d) handed out a buffer of capacity %d", n, cap(s))
			}
		}
	}
}

// TestParRangePanicChunkAccounting pins the executed-chunk fix: a panic
// abandons the remaining chunks, and the pool counters must report only the
// chunks that actually ran, not the planned count.
func TestParRangePanicChunkAccounting(t *testing.T) {
	withWorkers(t, 4)
	const n = 256
	_, before, _ := PoolStats()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic not propagated")
			}
		}()
		parRange(n, 1, func(lo, hi int) {
			if lo == n/2 {
				panic("boom")
			}
		})
	}()
	_, after, _ := PoolStats()
	executed := after - before
	if executed >= n {
		t.Errorf("counted %d chunks, but the panic abandoned the range (planned %d)", executed, n)
	}
	if executed < 0 {
		t.Errorf("negative chunk delta %d", executed)
	}
}
