// Package hdfs simulates the distributed file system underlying the ML
// system: named files carrying matrix metadata (dimensions, non-zeros,
// format), optionally backed by real in-memory payloads (small data) or by
// metadata-only descriptors (large simulated scenarios). Block size drives
// the number of input splits and hence map task counts.
package hdfs

import (
	"errors"
	"fmt"
	"maps"
	"sort"
	"sync"

	"elasticml/internal/conf"
	"elasticml/internal/matrix"
	"elasticml/internal/obs"
)

// ErrTransientRead is the injected transient failure of a DFS read (a
// flaky DataNode connection); clients recover by re-reading the replica.
var ErrTransientRead = errors.New("hdfs: transient read error")

// Format is the on-disk file format.
type Format int

// File formats. Binary block is the system's native format; text formats
// incur a parse factor in the IO model.
const (
	BinaryBlock Format = iota
	TextCSV
)

func (f Format) String() string {
	if f == TextCSV {
		return "csv"
	}
	return "binary"
}

// File is a stored matrix: metadata plus an optional real payload.
type File struct {
	// Name is the absolute path of the file.
	Name string
	// Rows, Cols, NNZ describe the stored matrix.
	Rows, Cols, NNZ int64
	// Format is the serialization format.
	Format Format
	// Data holds the real payload for value-mode execution; nil for
	// metadata-only descriptors used by large simulated scenarios.
	Data *matrix.Matrix
}

// Sparsity returns nnz/(rows*cols), or 1 for degenerate dimensions.
func (f *File) Sparsity() float64 {
	cells := f.Rows * f.Cols
	if cells <= 0 {
		return 1
	}
	return float64(f.NNZ) / float64(cells)
}

// SizeOnDisk returns the serialized size of the file. Binary block size
// equals the in-memory estimate; CSV is approximated at 12 bytes/cell.
func (f *File) SizeOnDisk() conf.Bytes {
	if f.Format == TextCSV {
		return conf.Bytes(f.Rows * f.Cols * 12)
	}
	return matrix.EstimateSize(f.Rows, f.Cols, f.Sparsity())
}

// FS is an in-memory simulated DFS. It is safe for concurrent use.
type FS struct {
	mu    sync.RWMutex
	files map[string]*File

	// readFault, when set, is sampled before each Read; a true draw fails
	// the read with ErrTransientRead (fault injection hook).
	readFault func() bool

	// trace, when set, records hdfs.* counters and an instant event per
	// injected transient read failure.
	trace *obs.Tracer
}

// SetTracer attaches an observability tracer (nil detaches): reads, written
// and read bytes, and transient read errors are recorded as hdfs.* metrics,
// with a cluster-layer instant event per injected failure.
func (fs *FS) SetTracer(tr *obs.Tracer) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.trace = tr
}

// New returns an empty file system.
func New() *FS {
	return &FS{files: make(map[string]*File)}
}

// Clone returns a copy-on-write view of the file system: the same files,
// read-fault hook and tracer under a name table of its own, so
// what one side writes or deletes the other never sees. Sharing the files
// is safe because a write replaces a *File and never edits one in place.
func (fs *FS) Clone() *FS {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return &FS{files: maps.Clone(fs.files), readFault: fs.readFault, trace: fs.trace}
}

// PutMatrix stores a real matrix under the given name in binary format.
func (fs *FS) PutMatrix(name string, m *matrix.Matrix) *File {
	f := &File{
		Name:   name,
		Rows:   int64(m.Rows()),
		Cols:   int64(m.Cols()),
		NNZ:    m.NNZ(),
		Format: BinaryBlock,
		Data:   m,
	}
	fs.put(f)
	return f
}

// PutDescriptor stores a metadata-only file (no payload), as used by large
// simulated scenarios.
func (fs *FS) PutDescriptor(name string, rows, cols, nnz int64, format Format) *File {
	f := &File{Name: name, Rows: rows, Cols: cols, NNZ: nnz, Format: format}
	fs.put(f)
	return f
}

func (fs *FS) put(f *File) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.files[f.Name] = f
	m := fs.trace.Metrics()
	m.Add("hdfs.writes", 1)
	m.Add("hdfs.bytes_written", int64(f.SizeOnDisk()))
}

// Stat returns the file metadata, or an error if it does not exist.
func (fs *FS) Stat(name string) (*File, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("hdfs: file %q does not exist", name)
	}
	return f, nil
}

// SetReadFault installs (or, with nil, removes) the transient-read fault
// sampler. The signature matches fault.Injector.HDFSReadFails.
func (fs *FS) SetReadFault(fn func() bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.readFault = fn
}

// Read returns the file and accounts the read bytes. With a read-fault
// sampler installed, a failed draw returns ErrTransientRead before any
// bytes are accounted.
func (fs *FS) Read(name string) (*File, error) {
	f, err := fs.Stat(name)
	if err != nil {
		return nil, err
	}
	fs.mu.Lock()
	fault := fs.readFault
	tr := fs.trace
	fs.mu.Unlock()
	if fault != nil && fault() {
		tr.Instant(obs.LayerCluster, "hdfs.transient-read-error", obs.A("file", name))
		tr.Metrics().Add("hdfs.transient_errors", 1)
		return nil, fmt.Errorf("hdfs: read %q: %w", name, ErrTransientRead)
	}
	m := tr.Metrics()
	m.Add("hdfs.reads", 1)
	m.Add("hdfs.bytes_read", int64(f.SizeOnDisk()))
	return f, nil
}

// ReadWithRetry reads the file, retrying transient errors up to attempts
// times total (HDFS clients fail over to another replica). It returns the
// file, the number of retries taken, and the final error; non-transient
// errors (missing files) fail immediately.
func (fs *FS) ReadWithRetry(name string, attempts int) (*File, int, error) {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for i := 0; i < attempts; i++ {
		var f *File
		f, err = fs.Read(name)
		if err == nil {
			return f, i, nil
		}
		if !errors.Is(err, ErrTransientRead) {
			return nil, i, err
		}
	}
	return nil, attempts - 1, fmt.Errorf("hdfs: %d attempts: %w", attempts, err)
}

// Delete removes the file; deleting a missing file is an error.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("hdfs: delete of missing file %q", name)
	}
	delete(fs.files, name)
	return nil
}

// Exists reports whether the file is present.
func (fs *FS) Exists(name string) bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	_, ok := fs.files[name]
	return ok
}

// List returns the sorted names of all files.
func (fs *FS) List() []string {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	names := make([]string, 0, len(fs.files))
	for n := range fs.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
