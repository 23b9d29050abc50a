package server

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"errors"
	"flag"
	"io"
	"os"
	"reflect"
	"strings"
	"testing"

	"elasticml/internal/obs"
)

var update = flag.Bool("update", false, "rewrite testdata/frames.golden")

const goldenFrames = "testdata/frames.golden"

// goldenMessages is one fixed message per type, in type order. The bytes
// each encodes to are pinned in testdata/frames.golden, which the encoder
// of the commit before the one-walk codec produced: encode and decode are
// one walk now, so a round trip cannot see the format move; this can.
func goldenMessages() []Message {
	hist := obs.HistPoint{Name: "server.request.ms"}
	hist.Hist.Count, hist.Hist.Sum, hist.Hist.Min, hist.Hist.Max = 3, 4.5, 0.25, 3.5
	hist.Hist.Buckets = [8]int64{0, 0, 0, 1, 2, 0, 0, 0}
	return []Message{
		&Hello{Version: ProtoVersion, Client: "elasticml-client"},
		&HelloAck{Version: ProtoVersion, Server: "elasticml", MaxFrame: DefaultMaxFrame},
		&SubmitJob{
			ReqID: 7, Tenant: "tenant-00", Script: "LinregCG", Size: "M", Cols: 1000,
			Sparsity: 0.01, Source: "X = read($X);\n",
			Params: []Param{
				{Key: "reg", Kind: ParamFloat, F: 1e-3},
				{Key: "maxi", Kind: ParamInt, I: -5},
				{Key: "X", Kind: ParamString, S: "/data/X"},
				{Key: "icpt", Kind: ParamBool, B: true},
			},
		},
		&JobAccepted{ReqID: 7, Job: 12, Arrival: 3.25},
		&JobStatus{ReqID: 8, Job: 12},
		&JobStatusAck{ReqID: 8, Job: 12, State: "running", Tenant: "tenant-00", Arrival: 3.25, Admitted: 3.5, Finished: -1},
		&JobResult{
			Job: 12, Tenant: "tenant-00", Program: "LinregCG", Config: "CP 2GB / MR 1GB",
			Flags: FlagServed | FlagCacheHit, Arrival: 3.25, Admitted: 3.5, Finished: 64.75,
			QueueDelay: 0.25, Latency: 61.5, WastedWork: 1.5, Reopts: 2, Requeues: 1,
			OutputHash: "9f86d081884c7d65", Error: "",
		},
		&CancelJob{ReqID: 9, Job: 12},
		&CancelAck{ReqID: 9, Job: 12, OK: true},
		&MetricsRequest{ReqID: 10},
		&MetricsFrame{ReqID: 10, Snapshot: obs.MetricsSnapshot{
			Counters: []obs.CounterPoint{{Name: "server.jobs.completed", Value: 41}},
			Gauges:   []obs.GaugePoint{{Name: "server.jobs.inflight", Value: 2}},
			Hists:    []obs.HistPoint{hist},
		}},
		&Ping{ReqID: 11},
		&Pong{ReqID: 11},
		&ErrorFrame{ReqID: 12, Code: CodeOverloaded, Msg: "inflight job cap"},
	}
}

// readGoldenFrames returns the pinned frames, one per message type.
func readGoldenFrames(t testing.TB) [][]byte {
	f, err := os.Open(goldenFrames)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var frames [][]byte
	for sc := bufio.NewScanner(f); sc.Scan(); {
		b, err := hex.DecodeString(sc.Text())
		if err != nil {
			t.Fatalf("%s line %d: %v", goldenFrames, len(frames)+1, err)
		}
		frames = append(frames, b)
	}
	return frames
}

// TestWireGolden: every message type encodes to its pinned bytes, and the
// pinned bytes decode to the message. Regenerate with -update only when the
// format is meant to move (and bump ProtoVersion).
func TestWireGolden(t *testing.T) {
	msgs := goldenMessages()
	if len(msgs) != int(typeMax)-1 {
		t.Fatalf("%d golden messages for %d types", len(msgs), typeMax-1)
	}
	if *update {
		var sb strings.Builder
		for _, m := range msgs {
			b, err := EncodeFrame(m, DefaultMaxFrame)
			if err != nil {
				t.Fatal(err)
			}
			sb.WriteString(hex.EncodeToString(b) + "\n")
		}
		if err := os.WriteFile(goldenFrames, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	frames := readGoldenFrames(t)
	if len(frames) != len(msgs) {
		t.Fatalf("%s has %d frames, want %d", goldenFrames, len(frames), len(msgs))
	}
	for i, m := range msgs {
		if m.Type() != MsgType(i+1) {
			t.Fatalf("golden message %d is a %s", i, m.Type())
		}
		b, err := EncodeFrame(m, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%s: %v", m.Type(), err)
		}
		if !bytes.Equal(b, frames[i]) {
			t.Errorf("%s encodes to\n%x\nwant\n%x", m.Type(), b, frames[i])
		}
		got, err := ReadFrame(bytes.NewReader(frames[i]), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("%s: decode golden: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s golden decodes to\n%#v\nwant\n%#v", m.Type(), got, m)
		}
	}
}

// FuzzReadFrame feeds arbitrary bytes to the daemon's front door: no panic,
// an error is one of the typed sentinels, and a frame that decodes re-encodes
// to bytes that decode to the same message. "Same" is judged on the encoded
// bytes, which tell NaN payloads apart where DeepEqual calls every NaN
// unequal; the input itself is not compared, since a bool decodes from any
// non-zero byte and encodes as 1.
func FuzzReadFrame(f *testing.F) {
	for _, b := range readGoldenFrames(f) {
		f.Add(b)
	}
	typed := []error{ErrFrameTooLarge, ErrTruncatedFrame, ErrUnknownMessage, ErrMalformed}
	f.Fuzz(func(t *testing.T, in []byte) {
		m, err := ReadFrame(bytes.NewReader(in), 1<<16)
		if err != nil {
			if err == io.EOF && len(in) == 0 {
				return // clean EOF at a frame boundary
			}
			for _, want := range typed {
				if errors.Is(err, want) {
					return
				}
			}
			t.Fatalf("untyped error %v", err)
		}
		b, err := EncodeFrame(m, 0)
		if err != nil {
			t.Fatalf("re-encode %s: %v", m.Type(), err)
		}
		again, err := ReadFrame(bytes.NewReader(b), 0)
		if err != nil {
			t.Fatalf("re-decode %s: %v", m.Type(), err)
		}
		if b2, _ := EncodeFrame(again, 0); !bytes.Equal(b, b2) {
			t.Fatalf("%s changed across re-encode:\n%#v\n%#v", m.Type(), m, again)
		}
	})
}
