// Package conf defines the shared configuration vocabulary of the system:
// byte sizes, cluster configurations, and resource vectors as used by the
// resource optimizer (paper §2.3).
package conf

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// Bytes is a memory size in bytes. All memory budgets, container requests
// and data sizes in the system are expressed in Bytes.
type Bytes int64

// Common byte-size units.
const (
	KB Bytes = 1 << 10
	MB Bytes = 1 << 20
	GB Bytes = 1 << 30
	TB Bytes = 1 << 40
)

// String renders the size with a binary-unit suffix, e.g. "4.4GB".
func (b Bytes) String() string {
	switch {
	case b >= TB:
		return trimUnit(float64(b)/float64(TB), "TB")
	case b >= GB:
		return trimUnit(float64(b)/float64(GB), "GB")
	case b >= MB:
		return trimUnit(float64(b)/float64(MB), "MB")
	case b >= KB:
		return trimUnit(float64(b)/float64(KB), "KB")
	default:
		return fmt.Sprintf("%dB", int64(b))
	}
}

func trimUnit(v float64, unit string) string {
	s := fmt.Sprintf("%.1f", v)
	if s[len(s)-2:] == ".0" {
		s = s[:len(s)-2]
	}
	return s + unit
}

// MBytes returns the size in (floating point) megabytes.
func (b Bytes) MBytes() float64 { return float64(b) / float64(MB) }

// GBytes returns the size in (floating point) gigabytes.
func (b Bytes) GBytes() float64 { return float64(b) / float64(GB) }

// BytesOfGB builds a Bytes value from a fractional number of gigabytes.
func BytesOfGB(gb float64) Bytes { return Bytes(gb * float64(GB)) }

// ParseBytes parses a positive size such as "512MB", "4.4GB" or "1024B";
// a bare number is a byte count. Units are binary and case-insensitive.
func ParseBytes(s string) (Bytes, error) {
	num := strings.TrimSpace(strings.ToUpper(s))
	mult := Bytes(1)
	switch {
	case strings.HasSuffix(num, "TB"):
		mult, num = TB, num[:len(num)-2]
	case strings.HasSuffix(num, "GB"):
		mult, num = GB, num[:len(num)-2]
	case strings.HasSuffix(num, "MB"):
		mult, num = MB, num[:len(num)-2]
	case strings.HasSuffix(num, "KB"):
		mult, num = KB, num[:len(num)-2]
	case strings.HasSuffix(num, "B"):
		num = num[:len(num)-1]
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil || v <= 0 || v*float64(mult) >= 1<<63 {
		return 0, fmt.Errorf("conf: bad size %q (want e.g. 512MB, 4.4GB)", s)
	}
	return Bytes(v * float64(mult)), nil
}

// UnmarshalJSON accepts a byte count (what Bytes marshals to) or a quoted
// size as ParseBytes reads it, so hand-written files can say "1GB".
func (b *Bytes) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		v, err := ParseBytes(s)
		if err != nil {
			return err
		}
		*b = v
		return nil
	}
	return json.Unmarshal(data, (*int64)(b))
}
