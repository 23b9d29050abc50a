package conf

import (
	"encoding/json"
	"testing"
	"testing/quick"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{512 * MB, "512MB"},
		{2 * GB, "2GB"},
		{BytesOfGB(4.4), "4.4GB"},
		{1536 * MB, "1.5GB"},
		{100, "100B"},
		{3 * KB, "3KB"},
		{2 * TB, "2TB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

// TestBytesParse: ParseBytes inverts String on the sizes String can spell
// exactly, and a Bytes field reads from JSON as a size string or a count.
func TestBytesParse(t *testing.T) {
	for _, b := range []Bytes{512 * MB, 2 * GB, 1536 * MB, 100, 3 * KB, 2 * TB} {
		if got, err := ParseBytes(b.String()); err != nil || got != b {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", b.String(), got, err, b)
		}
	}
	if got, err := ParseBytes(" 1gb "); err != nil || got != GB {
		t.Errorf("ParseBytes is not case- and space-insensitive: %d, %v", got, err)
	}
	for _, bad := range []string{"", "wat", "GB", "-1GB", "0", "2XB", "1e30GB"} {
		if got, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) = %d, want error", bad, got)
		}
	}

	var c Cluster
	if err := json.Unmarshal([]byte(`{"mem_per_node": "1.5GB", "min_alloc": 512}`), &c); err != nil {
		t.Fatal(err)
	}
	if c.MemPerNode != 1536*MB || c.MinAlloc != 512 {
		t.Errorf("decoded %d / %d", c.MemPerNode, c.MinAlloc)
	}
	for _, bad := range []string{`{"mem_per_node": "wat"}`, `{"mem_per_node": true}`, `{"mem_per_node": 1.5}`} {
		if err := json.Unmarshal([]byte(bad), &c); err == nil {
			t.Errorf("%s: want error", bad)
		}
	}
}

func TestBytesConversions(t *testing.T) {
	if got := BytesOfGB(1.5); got != 1536*MB {
		t.Errorf("BytesOfGB(1.5) = %v, want 1.5GB", got)
	}
	if g := (3 * GB).GBytes(); g != 3 {
		t.Errorf("GBytes = %v", g)
	}
	if m := (3 * MB).MBytes(); m != 3 {
		t.Errorf("MBytes = %v", m)
	}
}

func TestDefaultClusterMatchesPaper(t *testing.T) {
	cc := DefaultCluster()
	if err := cc.Validate(); err != nil {
		t.Fatalf("default cluster invalid: %v", err)
	}
	if cc.Nodes != 6 || cc.CoresPerNode != 12 {
		t.Errorf("nodes/cores = %d/%d, want 6/12", cc.Nodes, cc.CoresPerNode)
	}
	if cc.MinAlloc != 512*MB || cc.MaxAlloc != 80*GB {
		t.Errorf("alloc constraints = %v/%v", cc.MinAlloc, cc.MaxAlloc)
	}
	// Max heap ~ 53.3GB as in the paper (80GB/1.5).
	mh := cc.MaxHeap().GBytes()
	if mh < 53.2 || mh > 53.4 {
		t.Errorf("MaxHeap = %.2fGB, want ~53.3GB", mh)
	}
}

func TestClusterValidateRejectsBadConfigs(t *testing.T) {
	base := DefaultCluster()
	mut := []func(*Cluster){
		func(c *Cluster) { c.Nodes = 0 },
		func(c *Cluster) { c.CoresPerNode = -1 },
		func(c *Cluster) { c.MemPerNode = 0 },
		func(c *Cluster) { c.MinAlloc = 0 },
		func(c *Cluster) { c.MaxAlloc = c.MinAlloc - 1 },
		func(c *Cluster) { c.HDFSBlockSize = 0 },
		func(c *Cluster) { c.ContainerOverhead = 0.5 },
		func(c *Cluster) { c.CPBudgetRatio = 0 },
		func(c *Cluster) { c.CPBudgetRatio = 1.5 },
	}
	for i, m := range mut {
		c := base
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d: expected validation error", i)
		}
	}
}

func TestContainerSizeClamped(t *testing.T) {
	cc := DefaultCluster()
	if got := cc.ContainerSize(100 * MB); got != cc.MinAlloc {
		t.Errorf("small heap container = %v, want min alloc %v", got, cc.MinAlloc)
	}
	if got := cc.ContainerSize(100 * GB); got != cc.MaxAlloc {
		t.Errorf("huge heap container = %v, want max alloc %v", got, cc.MaxAlloc)
	}
	if got := cc.ContainerSize(2 * GB); got != 3*GB {
		t.Errorf("2GB heap container = %v, want 3GB", got)
	}
}

func TestTaskSlotsMatchPaperArithmetic(t *testing.T) {
	cc := DefaultCluster()
	// The paper: 4.4GB tasks allow 12 per node (12*4.4GB*1.5 ~= 80GB).
	slots := cc.ScheduledTasksPerNode(BytesOfGB(4.4))
	if slots != 12 {
		t.Errorf("ScheduledTasksPerNode(4.4GB) = %d, want 12", slots)
	}
	// 8GB CP heap: app parallelism arithmetic 6*floor(80/(1.5*8)) = 36 used
	// in the throughput experiment maps to container sizing here.
	if n := int(cc.MemPerNode / cc.ContainerSize(8*GB)); n != 6 {
		t.Errorf("8GB CP containers per node = %d, want 6", n)
	}
}

func TestOpBudget(t *testing.T) {
	cc := DefaultCluster()
	if got := cc.OpBudget(10 * GB); got != 7*GB {
		t.Errorf("OpBudget(10GB) = %v, want 7GB", got)
	}
}

func TestResourcesBasics(t *testing.T) {
	r := NewResources(8*GB, 2*GB, 3)
	if r.String() != "8GB/2GB" {
		t.Errorf("String = %q", r.String())
	}
	if r.MRFor(1) != 2*GB || r.MRFor(99) != 2*GB {
		t.Errorf("MRFor out-of-range fallback broken")
	}
	r2 := r.Clone()
	if !r2.Equal(r) {
		t.Error("a clone differs from its original")
	}
	r2.MR[0] = 4 * GB
	if r.MR[0] != 2*GB {
		t.Error("Clone is shallow")
	}
	for name, o := range map[string]Resources{
		"an MR entry": r2,
		"CP":          NewResources(4*GB, 2*GB, 3),
		"CPCores":     r.WithCores(4),
		"MR length":   NewResources(8*GB, 2*GB, 2),
	} {
		if r.Equal(o) || o.Equal(r) {
			t.Errorf("resources differing in %s compare equal", name)
		}
	}
	if !(Resources{CP: GB}).Equal(Resources{CP: GB, MR: []Bytes{}}) {
		t.Error("a nil and an empty MR vector compare unequal")
	}
	if r2.MaxMR() != 4*GB {
		t.Errorf("MaxMR = %v", r2.MaxMR())
	}
	empty := Resources{CP: GB}
	if empty.MRFor(0) != GB {
		t.Errorf("empty MRFor should fall back to CP")
	}
}

func TestTaskSlotsMonotone(t *testing.T) {
	cc := DefaultCluster()
	f := func(a, b uint16) bool {
		h1 := Bytes(a%200+1) * 256 * MB
		h2 := Bytes(b%200+1) * 256 * MB
		if h1 > h2 {
			h1, h2 = h2, h1
		}
		// Larger task heaps can never yield more slots.
		return cc.ScheduledTasksPerNode(h2) <= cc.ScheduledTasksPerNode(h1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestContainerSizeMonotone(t *testing.T) {
	cc := DefaultCluster()
	f := func(a, b uint16) bool {
		h1 := Bytes(a) * 64 * MB
		h2 := Bytes(b) * 64 * MB
		if h1 > h2 {
			h1, h2 = h2, h1
		}
		return cc.ContainerSize(h1) <= cc.ContainerSize(h2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
