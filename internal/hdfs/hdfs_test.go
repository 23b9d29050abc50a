package hdfs

import (
	"testing"

	"elasticml/internal/conf"
	"elasticml/internal/matrix"
)

func TestPutStatReadDelete(t *testing.T) {
	fs := New()
	m := matrix.Random(10, 5, 1.0, 0, 1, 1)
	f := fs.PutMatrix("/data/X", m)
	if f.Rows != 10 || f.Cols != 5 || f.NNZ != 50 {
		t.Fatalf("metadata wrong: %+v", f)
	}
	got, err := fs.Stat("/data/X")
	if err != nil || got != f {
		t.Fatalf("Stat: %v", err)
	}
	if !fs.Exists("/data/X") || fs.Exists("/data/Y") {
		t.Fatal("Exists wrong")
	}
	r, err := fs.Read("/data/X")
	if err != nil || r.Data == nil {
		t.Fatalf("Read: %v", err)
	}
	if err := fs.Delete("/data/X"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := fs.Delete("/data/X"); err == nil {
		t.Fatal("double delete should fail")
	}
	if _, err := fs.Stat("/data/X"); err == nil {
		t.Fatal("Stat after delete should fail")
	}
}

func TestDescriptorSize(t *testing.T) {
	fs := New()
	// 8GB dense scenario: 1e9 cells.
	f := fs.PutDescriptor("/data/L", 1e7, 100, 1e9, BinaryBlock)
	if f.Sparsity() != 1.0 {
		t.Errorf("sparsity = %v", f.Sparsity())
	}
	if f.SizeOnDisk() != conf.Bytes(8e9) {
		t.Errorf("SizeOnDisk = %v, want 8e9 bytes", f.SizeOnDisk())
	}
}

func TestSparseDescriptorSize(t *testing.T) {
	fs := New()
	dense := fs.PutDescriptor("/d", 1e6, 1000, 1e9, BinaryBlock)
	sparse := fs.PutDescriptor("/s", 1e6, 1000, 1e7, BinaryBlock)
	if sparse.SizeOnDisk() >= dense.SizeOnDisk() {
		t.Errorf("sparse %v should be smaller than dense %v", sparse.SizeOnDisk(), dense.SizeOnDisk())
	}
}

func TestCSVFormatSize(t *testing.T) {
	fs := New()
	f := fs.PutDescriptor("/csv", 100, 100, 10000, TextCSV)
	if f.SizeOnDisk() != 100*100*12 {
		t.Errorf("CSV size = %v", f.SizeOnDisk())
	}
	if f.Format.String() != "csv" {
		t.Error("format string")
	}
}

func TestList(t *testing.T) {
	fs := New()
	fs.PutDescriptor("/b", 1, 1, 1, BinaryBlock)
	fs.PutDescriptor("/a", 1, 1, 1, BinaryBlock)
	got := fs.List()
	if len(got) != 2 || got[0] != "/a" || got[1] != "/b" {
		t.Errorf("List = %v", got)
	}
}
