package verify

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
)

// byteSource is a rand.Source that draws its values from a fuzzer's
// bytes, eight at a time. Once they run out it continues from a source
// seeded by them, so every input, the empty one too, yields a program in
// a bounded number of draws.
type byteSource struct {
	b    []byte
	rest rand.Source
}

func newByteSource(b []byte) *byteSource {
	h := fnv.New64a()
	h.Write(b)
	return &byteSource{b: b, rest: rand.NewSource(int64(h.Sum64()))}
}

func (s *byteSource) Int63() int64 {
	if len(s.b) < 8 {
		return s.rest.Int63()
	}
	v := binary.LittleEndian.Uint64(s.b)
	s.b = s.b[8:]
	return int64(v >> 1)
}

func (s *byteSource) Seed(int64) {}

// FuzzDifferential: a program generated from the fuzzer's bytes runs
// clean under every configuration and against the reference interpreter,
// with the auditor on and its compiled program unchanged.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		src := newByteSource(b)
		r := rand.New(src)
		p := fuzzProgram(r, src.rest.Int63(), r.Intn(3), "fuzz-bytes")
		res := RunProgram(p, Options{})
		for _, finding := range res.Findings {
			t.Error(finding)
		}
		if t.Failed() {
			t.Logf("program:\n%s", p.Source)
		}
	})
}
