package verify

import "testing"

// FuzzDifferential: a program generated from the fuzzer's bytes runs
// clean under every configuration and against the reference interpreter,
// with the auditor on and its compiled program unchanged.
func FuzzDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	f.Add(make([]byte, 64))
	f.Fuzz(func(t *testing.T, b []byte) {
		p := BytesProgram(b)
		res := RunProgram(p, Options{})
		for _, finding := range res.Findings {
			t.Error(finding)
		}
		if t.Failed() {
			t.Logf("program:\n%s", p.Source)
		}
	})
}
