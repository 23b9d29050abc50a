// Wire protocol of the elastic optimizer daemon: a compact length-prefixed
// binary framing with typed messages.
//
// Frame layout (network byte order / big endian):
//
//	+----------------+--------+----------------------+
//	| u32 length     | u8 type| payload (length-1 B) |
//	+----------------+--------+----------------------+
//
// length counts the type byte plus the payload, so the smallest legal
// frame is length 1 (a bare type with no payload). Frames above the
// negotiated maximum are rejected with ErrFrameTooLarge before any payload
// is read; a reader that hits EOF mid-frame surfaces ErrTruncatedFrame.
// Payload fields are fixed-width big-endian integers, IEEE-754 bit
// patterns for floats, and u32-length-prefixed UTF-8 for strings.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"elasticml/internal/obs"
)

// ProtoVersion is the protocol version this build speaks. Hello carries the
// client's version; the server rejects mismatches with a typed error frame
// before any other traffic.
const ProtoVersion uint16 = 1

// DefaultMaxFrame bounds a frame's length field (type byte + payload).
const DefaultMaxFrame = 1 << 20

// Typed protocol errors. Framing errors (too large, truncated, garbage)
// are connection-fatal; ErrVersionMismatch is returned by the handshake.
var (
	ErrFrameTooLarge   = errors.New("proto: frame exceeds maximum size")
	ErrTruncatedFrame  = errors.New("proto: truncated frame")
	ErrUnknownMessage  = errors.New("proto: unknown message type")
	ErrMalformed       = errors.New("proto: malformed payload")
	ErrVersionMismatch = errors.New("proto: protocol version mismatch")
	// ErrOverloaded is the typed shed condition: the admission limiter (or
	// session pool) rejected the request. It surfaces on the wire as an
	// Error frame with CodeOverloaded — never as a dropped connection.
	ErrOverloaded = errors.New("server: overloaded, request shed")
)

// MsgType tags a frame.
type MsgType uint8

// The protocol's message types.
const (
	TypeHello MsgType = iota + 1
	TypeHelloAck
	TypeSubmitJob
	TypeJobAccepted
	TypeJobStatus
	TypeJobStatusAck
	TypeJobResult
	TypeCancelJob
	TypeCancelAck
	TypeMetricsRequest
	TypeMetricsSnapshot
	TypePing
	TypePong
	TypeError
	typeMax // one past the last valid type
)

// msgTypes is the one table of message types: the name a type prints as and
// the constructor of its zero message. A type is valid iff it has a row.
var msgTypes = [typeMax]struct {
	name string
	new  func() Message
}{
	TypeHello:           {"Hello", func() Message { return new(Hello) }},
	TypeHelloAck:        {"HelloAck", func() Message { return new(HelloAck) }},
	TypeSubmitJob:       {"SubmitJob", func() Message { return new(SubmitJob) }},
	TypeJobAccepted:     {"JobAccepted", func() Message { return new(JobAccepted) }},
	TypeJobStatus:       {"JobStatus", func() Message { return new(JobStatus) }},
	TypeJobStatusAck:    {"JobStatusAck", func() Message { return new(JobStatusAck) }},
	TypeJobResult:       {"JobResult", func() Message { return new(JobResult) }},
	TypeCancelJob:       {"CancelJob", func() Message { return new(CancelJob) }},
	TypeCancelAck:       {"CancelAck", func() Message { return new(CancelAck) }},
	TypeMetricsRequest:  {"MetricsRequest", func() Message { return new(MetricsRequest) }},
	TypeMetricsSnapshot: {"MetricsSnapshot", func() Message { return new(MetricsFrame) }},
	TypePing:            {"Ping", func() Message { return new(Ping) }},
	TypePong:            {"Pong", func() Message { return new(Pong) }},
	TypeError:           {"Error", func() Message { return new(ErrorFrame) }},
}

func (t MsgType) valid() bool { return t < typeMax && msgTypes[t].new != nil }

func (t MsgType) String() string {
	if t.valid() {
		return msgTypes[t].name
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// ErrCode classifies an Error frame.
type ErrCode uint16

const (
	CodeOverloaded ErrCode = iota + 1
	CodeBadRequest
	CodeUnknownJob
	CodeShuttingDown
	CodeVersionMismatch
	CodeInternal
)

func (c ErrCode) String() string {
	switch c {
	case CodeOverloaded:
		return "overloaded"
	case CodeBadRequest:
		return "bad-request"
	case CodeUnknownJob:
		return "unknown-job"
	case CodeShuttingDown:
		return "shutting-down"
	case CodeVersionMismatch:
		return "version-mismatch"
	case CodeInternal:
		return "internal"
	}
	return fmt.Sprintf("code(%d)", uint16(c))
}

// Message is one decoded protocol message. wire visits the payload's fields
// in wire order on a codec, which appends them (EncodeFrame) or reads them
// (ReadFrame): a field is declared in the struct and named once in wire, so
// the two directions cannot disagree.
type Message interface {
	Type() MsgType
	wire(*codec)
}

// Hello opens a session (client → server).
type Hello struct {
	Version uint16
	Client  string
}

// HelloAck accepts a session (server → client) and advertises the frame
// budget the server enforces.
type HelloAck struct {
	Version  uint16
	Server   string
	MaxFrame uint32
}

// ParamKind tags a SubmitJob parameter value.
type ParamKind uint8

const (
	ParamFloat ParamKind = iota
	ParamInt
	ParamString
	ParamBool
)

// Param is one named DML parameter of a source-mode submission.
type Param struct {
	Key  string
	Kind ParamKind
	F    float64
	I    int64
	S    string
	B    bool
}

// SubmitJob submits one DML job (client → server). Script-mode submissions
// name an evaluation script plus a data scenario; source-mode submissions
// (Script == "") carry raw DML source and typed parameters.
type SubmitJob struct {
	ReqID    uint64
	Tenant   string
	Script   string
	Size     string
	Cols     int64
	Sparsity float64
	Source   string
	Params   []Param
}

// JobAccepted acknowledges a submission (server → client) with the job id
// and the simulated arrival time the sequencer assigned.
type JobAccepted struct {
	ReqID   uint64
	Job     uint32
	Arrival float64
}

// JobStatus queries one job's lifecycle state (client → server).
type JobStatus struct {
	ReqID uint64
	Job   uint32
}

// JobStatusAck answers a status query (server → client).
type JobStatusAck struct {
	ReqID    uint64
	Job      uint32
	State    string
	Tenant   string
	Arrival  float64
	Admitted float64
	Finished float64
}

// ResultFlags pack a JobResult's booleans.
type ResultFlags uint8

const (
	FlagServed ResultFlags = 1 << iota
	FlagCacheHit
	FlagDegraded
	FlagShed
	FlagFailedPerm
	FlagCanceled
)

// JobResult streams a terminal job outcome (server → client) with the
// cost/plan summary. All times are simulated seconds.
type JobResult struct {
	Job        uint32
	Tenant     string
	Program    string
	Config     string
	Flags      ResultFlags
	Arrival    float64
	Admitted   float64
	Finished   float64
	QueueDelay float64
	Latency    float64
	WastedWork float64
	Reopts     uint32
	Requeues   uint32
	OutputHash string
	Error      string
}

// CancelJob requests termination of a submitted job (client → server).
type CancelJob struct {
	ReqID uint64
	Job   uint32
}

// CancelAck answers a cancellation (server → client); OK is false when the
// job was already terminal.
type CancelAck struct {
	ReqID uint64
	Job   uint32
	OK    bool
}

// MetricsRequest asks for a live metrics snapshot (client → server).
type MetricsRequest struct {
	ReqID uint64
}

// MetricsFrame carries a sorted, deterministic metrics snapshot
// (server → client).
type MetricsFrame struct {
	ReqID    uint64
	Snapshot obs.MetricsSnapshot
}

// Ping / Pong are the liveness probe pair.
type Ping struct{ ReqID uint64 }
type Pong struct{ ReqID uint64 }

// ErrorFrame reports a per-request failure (server → client). The session
// stays open: protocol-level sheds and rejections are frames, not
// connection drops.
type ErrorFrame struct {
	ReqID uint64
	Code  ErrCode
	Msg   string
}

func (e *ErrorFrame) Err() error {
	base := error(nil)
	switch e.Code {
	case CodeOverloaded:
		base = ErrOverloaded
	case CodeVersionMismatch:
		base = ErrVersionMismatch
	}
	if base != nil {
		return fmt.Errorf("%w: %s", base, e.Msg)
	}
	return fmt.Errorf("server: %s: %s", e.Code, e.Msg)
}

func (m *Hello) Type() MsgType          { return TypeHello }
func (m *HelloAck) Type() MsgType       { return TypeHelloAck }
func (m *SubmitJob) Type() MsgType      { return TypeSubmitJob }
func (m *JobAccepted) Type() MsgType    { return TypeJobAccepted }
func (m *JobStatus) Type() MsgType      { return TypeJobStatus }
func (m *JobStatusAck) Type() MsgType   { return TypeJobStatusAck }
func (m *JobResult) Type() MsgType      { return TypeJobResult }
func (m *CancelJob) Type() MsgType      { return TypeCancelJob }
func (m *CancelAck) Type() MsgType      { return TypeCancelAck }
func (m *MetricsRequest) Type() MsgType { return TypeMetricsRequest }
func (m *MetricsFrame) Type() MsgType   { return TypeMetricsSnapshot }
func (m *Ping) Type() MsgType           { return TypePing }
func (m *Pong) Type() MsgType           { return TypePong }
func (m *ErrorFrame) Type() MsgType     { return TypeError }

// --- codec --------------------------------------------------------------

// codec walks a payload in one direction: encoding, every field method
// appends *v to b; decoding, it reads *v from b at off. A decode latches its
// first error, after which every field method is a no-op that leaves *v
// alone.
type codec struct {
	dec bool
	b   []byte
	off int
	err error
}

// fail latches ErrMalformed on a decode. An encode refuses nothing: what it
// is handed came from this program, not from the wire.
func (c *codec) fail() {
	if c.dec && c.err == nil {
		c.err = ErrMalformed
	}
}

// take returns the next n payload bytes of a decode, or nil past the end.
func (c *codec) take(n int) []byte {
	if c.err != nil || n < 0 || n > len(c.b)-c.off {
		c.fail()
		return nil
	}
	s := c.b[c.off : c.off+n]
	c.off += n
	return s
}

func (c *codec) u8(v *uint8) {
	if !c.dec {
		c.b = append(c.b, *v)
	} else if s := c.take(1); s != nil {
		*v = s[0]
	}
}

func (c *codec) u16(v *uint16) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint16(c.b, *v)
	} else if s := c.take(2); s != nil {
		*v = binary.BigEndian.Uint16(s)
	}
}

func (c *codec) u32(v *uint32) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint32(c.b, *v)
	} else if s := c.take(4); s != nil {
		*v = binary.BigEndian.Uint32(s)
	}
}

func (c *codec) u64(v *uint64) {
	if !c.dec {
		c.b = binary.BigEndian.AppendUint64(c.b, *v)
	} else if s := c.take(8); s != nil {
		*v = binary.BigEndian.Uint64(s)
	}
}

func (c *codec) i64(v *int64) {
	u := uint64(*v)
	if c.u64(&u); c.dec {
		*v = int64(u)
	}
}

func (c *codec) f64(v *float64) {
	u := math.Float64bits(*v)
	if c.u64(&u); c.dec {
		*v = math.Float64frombits(u)
	}
}

func (c *codec) boolean(v *bool) {
	var u uint8
	if *v {
		u = 1
	}
	if c.u8(&u); c.dec {
		*v = u != 0
	}
}

func (c *codec) str(v *string) {
	n := uint32(len(*v))
	if c.u32(&n); !c.dec {
		c.b = append(c.b, *v...)
	} else if s := c.take(int(n)); s != nil {
		*v = string(s)
	}
}

// list walks a u32-count-prefixed slice. Every element occupies at least one
// byte, so a decode refuses a count above the bytes left before it allocates;
// a zero count leaves the slice nil.
func list[T any](c *codec, s *[]T, elem func(*T, *codec)) {
	n := uint32(len(*s))
	if c.u32(&n); c.dec {
		if c.err != nil || uint64(n) > uint64(len(c.b)-c.off) {
			c.fail()
			return
		}
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := 0; i < int(n) && c.err == nil; i++ {
		elem(&(*s)[i], c)
	}
}

// --- per-message payloads ----------------------------------------------

func (m *Hello) wire(c *codec) {
	c.u16(&m.Version)
	c.str(&m.Client)
}

func (m *HelloAck) wire(c *codec) {
	c.u16(&m.Version)
	c.str(&m.Server)
	c.u32(&m.MaxFrame)
}

func (m *SubmitJob) wire(c *codec) {
	c.u64(&m.ReqID)
	c.str(&m.Tenant)
	c.str(&m.Script)
	c.str(&m.Size)
	c.i64(&m.Cols)
	c.f64(&m.Sparsity)
	c.str(&m.Source)
	list(c, &m.Params, (*Param).wire)
}

func (p *Param) wire(c *codec) {
	c.str(&p.Key)
	c.u8((*uint8)(&p.Kind))
	switch p.Kind {
	case ParamFloat:
		c.f64(&p.F)
	case ParamInt:
		c.i64(&p.I)
	case ParamString:
		c.str(&p.S)
	case ParamBool:
		c.boolean(&p.B)
	default:
		c.fail()
	}
}

func (m *JobAccepted) wire(c *codec) {
	c.u64(&m.ReqID)
	c.u32(&m.Job)
	c.f64(&m.Arrival)
}

func (m *JobStatus) wire(c *codec) {
	c.u64(&m.ReqID)
	c.u32(&m.Job)
}

func (m *JobStatusAck) wire(c *codec) {
	c.u64(&m.ReqID)
	c.u32(&m.Job)
	c.str(&m.State)
	c.str(&m.Tenant)
	c.f64(&m.Arrival)
	c.f64(&m.Admitted)
	c.f64(&m.Finished)
}

func (m *JobResult) wire(c *codec) {
	c.u32(&m.Job)
	c.str(&m.Tenant)
	c.str(&m.Program)
	c.str(&m.Config)
	c.u8((*uint8)(&m.Flags))
	c.f64(&m.Arrival)
	c.f64(&m.Admitted)
	c.f64(&m.Finished)
	c.f64(&m.QueueDelay)
	c.f64(&m.Latency)
	c.f64(&m.WastedWork)
	c.u32(&m.Reopts)
	c.u32(&m.Requeues)
	c.str(&m.OutputHash)
	c.str(&m.Error)
}

func (m *CancelJob) wire(c *codec) {
	c.u64(&m.ReqID)
	c.u32(&m.Job)
}

func (m *CancelAck) wire(c *codec) {
	c.u64(&m.ReqID)
	c.u32(&m.Job)
	c.boolean(&m.OK)
}

func (m *MetricsRequest) wire(c *codec) { c.u64(&m.ReqID) }

func (m *MetricsFrame) wire(c *codec) {
	c.u64(&m.ReqID)
	list(c, &m.Snapshot.Counters, func(p *obs.CounterPoint, c *codec) {
		c.str(&p.Name)
		c.i64(&p.Value)
	})
	list(c, &m.Snapshot.Gauges, func(p *obs.GaugePoint, c *codec) {
		c.str(&p.Name)
		c.f64(&p.Value)
	})
	list(c, &m.Snapshot.Hists, func(p *obs.HistPoint, c *codec) {
		c.str(&p.Name)
		c.i64(&p.Hist.Count)
		c.f64(&p.Hist.Sum)
		c.f64(&p.Hist.Min)
		c.f64(&p.Hist.Max)
		nb := uint8(len(p.Hist.Buckets))
		if c.u8(&nb); int(nb) != len(p.Hist.Buckets) {
			c.fail()
		}
		for k := range p.Hist.Buckets {
			c.i64(&p.Hist.Buckets[k])
		}
	})
}

func (m *Ping) wire(c *codec) { c.u64(&m.ReqID) }
func (m *Pong) wire(c *codec) { c.u64(&m.ReqID) }

func (m *ErrorFrame) wire(c *codec) {
	c.u64(&m.ReqID)
	c.u16((*uint16)(&m.Code))
	c.str(&m.Msg)
}

// --- frame I/O ----------------------------------------------------------

// EncodeFrame serializes a message into a complete frame (header included).
func EncodeFrame(m Message, maxFrame uint32) ([]byte, error) {
	c := codec{b: make([]byte, 5, 64)}
	c.b[4] = byte(m.Type())
	m.wire(&c)
	length := uint32(len(c.b) - 4)
	if maxFrame > 0 && length > maxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, length, maxFrame)
	}
	binary.BigEndian.PutUint32(c.b[:4], length)
	return c.b, nil
}

// WriteFrame encodes and writes one frame.
func WriteFrame(w io.Writer, m Message, maxFrame uint32) error {
	b, err := EncodeFrame(m, maxFrame)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// ReadFrame reads and decodes one frame. maxFrame == 0 means
// DefaultMaxFrame. Returns io.EOF only on a clean EOF at a frame boundary;
// EOF inside a frame is ErrTruncatedFrame.
func ReadFrame(r io.Reader, maxFrame uint32) (Message, error) {
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, ErrTruncatedFrame
		}
		return nil, err
	}
	length := binary.BigEndian.Uint32(hdr[:])
	if length == 0 {
		return nil, fmt.Errorf("%w: zero-length frame", ErrMalformed)
	}
	if length > maxFrame {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, length, maxFrame)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, ErrTruncatedFrame
	}
	t := MsgType(body[0])
	if !t.valid() {
		return nil, fmt.Errorf("%w: type %d", ErrUnknownMessage, uint8(t))
	}
	m := msgTypes[t].new()
	c := codec{dec: true, b: body[1:]}
	m.wire(&c)
	if c.err == nil && c.off != len(c.b) {
		c.err = fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(c.b)-c.off)
	}
	if c.err != nil {
		return nil, fmt.Errorf("%s: %w", t, c.err)
	}
	return m, nil
}
