package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"elasticml/internal/obs"
)

// randString draws a printable string, occasionally empty and occasionally
// with embedded NULs and high bytes — framing must be 8-bit clean.
func randString(r *rand.Rand) string {
	n := r.Intn(24)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Intn(256))
	}
	return string(b)
}

func randF64(r *rand.Rand) float64 {
	switch r.Intn(8) {
	case 0:
		return 0
	case 1:
		return math.Inf(1)
	case 2:
		return -math.MaxFloat64
	default:
		return r.NormFloat64() * 1e3
	}
}

// randMessage draws one random message of a random type.
func randMessage(r *rand.Rand) Message {
	switch 1 + MsgType(r.Intn(int(typeMax-1))) {
	case TypeHello:
		return &Hello{Version: uint16(r.Intn(1 << 16)), Client: randString(r)}
	case TypeHelloAck:
		return &HelloAck{Version: uint16(r.Intn(1 << 16)), Server: randString(r), MaxFrame: r.Uint32()}
	case TypeSubmitJob:
		m := &SubmitJob{
			ReqID: r.Uint64(), Tenant: randString(r), Script: randString(r),
			Size: randString(r), Cols: r.Int63(), Sparsity: randF64(r),
			Source: randString(r),
		}
		for i := r.Intn(4); i > 0; i-- {
			p := Param{Key: randString(r), Kind: ParamKind(r.Intn(4))}
			switch p.Kind {
			case ParamFloat:
				p.F = randF64(r)
			case ParamInt:
				p.I = r.Int63()
			case ParamString:
				p.S = randString(r)
			case ParamBool:
				p.B = r.Intn(2) == 1
			}
			m.Params = append(m.Params, p)
		}
		return m
	case TypeJobAccepted:
		return &JobAccepted{ReqID: r.Uint64(), Job: r.Uint32(), Arrival: randF64(r)}
	case TypeJobStatus:
		return &JobStatus{ReqID: r.Uint64(), Job: r.Uint32()}
	case TypeJobStatusAck:
		return &JobStatusAck{
			ReqID: r.Uint64(), Job: r.Uint32(), State: randString(r),
			Tenant: randString(r), Arrival: randF64(r), Admitted: randF64(r),
			Finished: randF64(r),
		}
	case TypeJobResult:
		return &JobResult{
			Job: r.Uint32(), Tenant: randString(r), Program: randString(r),
			Config: randString(r), Flags: ResultFlags(r.Intn(64)),
			Arrival: randF64(r), Admitted: randF64(r), Finished: randF64(r),
			QueueDelay: randF64(r), Latency: randF64(r), WastedWork: randF64(r),
			Reopts: r.Uint32(), Requeues: r.Uint32(),
			OutputHash: randString(r), Error: randString(r),
		}
	case TypeCancelJob:
		return &CancelJob{ReqID: r.Uint64(), Job: r.Uint32()}
	case TypeCancelAck:
		return &CancelAck{ReqID: r.Uint64(), Job: r.Uint32(), OK: r.Intn(2) == 1}
	case TypeMetricsRequest:
		return &MetricsRequest{ReqID: r.Uint64()}
	case TypeMetricsSnapshot:
		m := &MetricsFrame{ReqID: r.Uint64()}
		for i := r.Intn(4); i > 0; i-- {
			m.Snapshot.Counters = append(m.Snapshot.Counters,
				obs.CounterPoint{Name: randString(r), Value: r.Int63()})
		}
		for i := r.Intn(4); i > 0; i-- {
			m.Snapshot.Gauges = append(m.Snapshot.Gauges,
				obs.GaugePoint{Name: randString(r), Value: randF64(r)})
		}
		for i := r.Intn(3); i > 0; i-- {
			hp := obs.HistPoint{Name: randString(r)}
			hp.Hist.Count = r.Int63()
			hp.Hist.Sum = randF64(r)
			hp.Hist.Min = randF64(r)
			hp.Hist.Max = randF64(r)
			for k := range hp.Hist.Buckets {
				hp.Hist.Buckets[k] = r.Int63()
			}
			m.Snapshot.Hists = append(m.Snapshot.Hists, hp)
		}
		return m
	case TypePing:
		return &Ping{ReqID: r.Uint64()}
	case TypePong:
		return &Pong{ReqID: r.Uint64()}
	default:
		return &ErrorFrame{ReqID: r.Uint64(), Code: ErrCode(r.Intn(8)), Msg: randString(r)}
	}
}

// TestFrameRoundTripProperty: seeded random messages of every type survive
// encode → decode bit-exactly, both singly and concatenated on one stream.
func TestFrameRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var stream bytes.Buffer
	var sent []Message
	for i := 0; i < 2000; i++ {
		m := randMessage(r)
		b, err := EncodeFrame(m, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("iter %d: encode %s: %v", i, m.Type(), err)
		}
		got, err := ReadFrame(bytes.NewReader(b), DefaultMaxFrame)
		if err != nil {
			t.Fatalf("iter %d: decode %s: %v", i, m.Type(), err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("iter %d: round trip mismatch for %s:\nsent %#v\ngot  %#v", i, m.Type(), m, got)
		}
		stream.Write(b)
		sent = append(sent, m)
	}
	// The concatenated stream decodes back message by message.
	rd := bytes.NewReader(stream.Bytes())
	for i, m := range sent {
		got, err := ReadFrame(rd, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("stream msg %d: %v", i, err)
		}
		if !reflect.DeepEqual(m, got) {
			t.Fatalf("stream msg %d mismatch", i)
		}
	}
	if _, err := ReadFrame(rd, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("stream tail: want io.EOF, got %v", err)
	}
}

// TestFrameTruncated: EOF inside the header or the body is a typed
// truncation error, never a silent io.EOF.
func TestFrameTruncated(t *testing.T) {
	b, err := EncodeFrame(&SubmitJob{ReqID: 9, Tenant: "t", Script: "LinregDS", Size: "S"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 1; cut < len(b); cut++ {
		_, err := ReadFrame(bytes.NewReader(b[:cut]), 0)
		if !errors.Is(err, ErrTruncatedFrame) {
			t.Fatalf("cut %d/%d: want ErrTruncatedFrame, got %v", cut, len(b), err)
		}
	}
}

// TestFrameOversized: a length field above the maximum is rejected before
// the body is read, on both the read and the write side.
func TestFrameOversized(t *testing.T) {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], 1<<24)
	hdr[4] = byte(TypePing)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read: want ErrFrameTooLarge, got %v", err)
	}
	big := &SubmitJob{Source: string(make([]byte, 4096))}
	if _, err := EncodeFrame(big, 1024); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("encode: want ErrFrameTooLarge, got %v", err)
	}
}

// frameOf puts a header on a hand-built payload.
func frameOf(t MsgType, payload []byte) []byte {
	frame := binary.BigEndian.AppendUint32(nil, uint32(1+len(payload)))
	return append(append(frame, byte(t)), payload...)
}

// TestFrameGarbage: zero-length frames, unknown types, short payloads, and
// trailing garbage are all typed malformed-frame errors.
func TestFrameGarbage(t *testing.T) {
	zero := make([]byte, 4)
	if _, err := ReadFrame(bytes.NewReader(zero), 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero length: want ErrMalformed, got %v", err)
	}

	unknown := []byte{0, 0, 0, 1, 0xEE}
	if _, err := ReadFrame(bytes.NewReader(unknown), 0); !errors.Is(err, ErrUnknownMessage) {
		t.Fatalf("unknown type: want ErrUnknownMessage, got %v", err)
	}

	// A Ping payload needs 8 bytes; give it 2.
	short := []byte{0, 0, 0, 3, byte(TypePing), 1, 2}
	if _, err := ReadFrame(bytes.NewReader(short), 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short payload: want ErrMalformed, got %v", err)
	}

	// A valid Ping with trailing garbage in the same frame.
	long := []byte{0, 0, 0, 11, byte(TypePing), 0, 0, 0, 0, 0, 0, 0, 7, 0xAA, 0xBB}
	if _, err := ReadFrame(bytes.NewReader(long), 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing bytes: want ErrMalformed, got %v", err)
	}

	// A string length that overruns the frame: an ErrorFrame with ReqID 1,
	// code 1 and a declared Msg length of 1<<30 over a one-byte payload.
	frame := []byte{0, 0, 0, 16, byte(TypeError),
		0, 0, 0, 0, 0, 0, 0, 1, // ReqID
		0, 1, // Code
		0x40, 0, 0, 0, // len(Msg)
		'x'}
	if _, err := ReadFrame(bytes.NewReader(frame), 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("overrun string: want ErrMalformed, got %v", err)
	}

	// A SubmitJob whose parameter count exceeds the bytes left is refused
	// before the slice is allocated (1<<20 Params would be 64 MB).
	submit := make([]byte, 44) // ReqID, three empty strings, Cols, Sparsity, empty Source, count
	binary.BigEndian.PutUint32(submit[40:], 1<<20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(frameOf(TypeSubmitJob, submit)), 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrMalformed) {
		t.Fatalf("overrun count: want ErrMalformed, got %v", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Fatalf("overrun count: decoder allocated %d bytes before refusing", got)
	}

	// One parameter with an empty key and a kind no ParamKind names.
	binary.BigEndian.PutUint32(submit[40:], 1)
	badKind := append(submit[:44:44], 0, 0, 0, 0, 9)
	if _, err := ReadFrame(bytes.NewReader(frameOf(TypeSubmitJob, badKind)), 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("unknown param kind: want ErrMalformed, got %v", err)
	}

	// A histogram that declares 7 buckets and carries 8: without the
	// bucket-count check the payload would decode with nothing left over.
	var h obs.HistPoint
	metrics := make([]byte, 8+4+4+4+4+8+8+8+8+1+8*len(h.Hist.Buckets))
	metrics[19] = 1 // one histogram after zero counters and zero gauges
	metrics[56] = uint8(len(h.Hist.Buckets) - 1)
	if _, err := ReadFrame(bytes.NewReader(frameOf(TypeMetricsSnapshot, metrics)), 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("histogram bucket count: want ErrMalformed, got %v", err)
	}
	metrics[56]++
	if _, err := ReadFrame(bytes.NewReader(frameOf(TypeMetricsSnapshot, metrics)), 0); err != nil {
		t.Fatalf("histogram with the right bucket count: %v", err)
	}

	// Seeded random garbage bodies with plausible headers must never panic
	// and must always produce a typed error or a valid message.
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		n := 1 + r.Intn(64)
		body := make([]byte, n)
		r.Read(body)
		frame := make([]byte, 4+n)
		binary.BigEndian.PutUint32(frame[:4], uint32(n))
		copy(frame[4:], body)
		_, err := ReadFrame(bytes.NewReader(frame), 0)
		if err != nil && !errors.Is(err, ErrMalformed) && !errors.Is(err, ErrUnknownMessage) {
			t.Fatalf("iter %d: unexpected error class: %v", i, err)
		}
	}
}

// TestErrorFrameTyped: error frames map back onto the typed sentinel
// errors clients branch on.
func TestErrorFrameTyped(t *testing.T) {
	over := &ErrorFrame{Code: CodeOverloaded, Msg: "inflight cap"}
	if !errors.Is(over.Err(), ErrOverloaded) {
		t.Fatalf("CodeOverloaded not ErrOverloaded: %v", over.Err())
	}
	ver := &ErrorFrame{Code: CodeVersionMismatch, Msg: "want 1"}
	if !errors.Is(ver.Err(), ErrVersionMismatch) {
		t.Fatalf("CodeVersionMismatch not ErrVersionMismatch: %v", ver.Err())
	}
	other := &ErrorFrame{Code: CodeUnknownJob, Msg: "job 99"}
	if other.Err() == nil || errors.Is(other.Err(), ErrOverloaded) {
		t.Fatalf("unexpected mapping: %v", other.Err())
	}
	if got := fmt.Sprintf("%v", other.Err()); got == "" {
		t.Fatal("empty error text")
	}
}
