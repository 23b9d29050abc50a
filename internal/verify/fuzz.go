package verify

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"

	"elasticml/internal/hdfs"
	"elasticml/internal/matrix"
)

// The fuzzer generates random but well-typed DML programs over the
// constructs the compiler supports. Shapes are tracked exactly so every
// generated operation is dimension-correct, and per-variable magnitude
// bounds are tracked so programs stay in a numerically comparable range
// (no overflow to Inf, no catastrophic magnitudes where a single ULP of
// reduction-order difference would dwarf the reference tolerance).
//
// Every generated program ends by writing all live matrices — and all
// live scalars wrapped into 1x1 matrices — under /out/fz/, plus printing
// each scalar, so the differential driver has a rich surface to compare.

// fuzzVar tracks one live variable's shape and magnitude bound.
type fuzzVar struct {
	name string
	rows int // 0 for scalars
	cols int
	mag  float64 // upper bound on |value|
}

type fuzzer struct {
	r     *rand.Rand
	b     strings.Builder
	mats  []fuzzVar
	scals []fuzzVar
	// extra holds write-only matrix variables with data-dependent shapes
	// (table outputs): written in the trailer but kept out of the operand
	// pool, where shape tracking could not stay exact.
	extra []string
	next  int // fresh-name counter
	depth int // loop/branch nesting; cbind/rbind/table stay at depth 0
}

// magCap is the magnitude ceiling beyond which a template is skipped.
const magCap = 1e12

// FuzzProgram generates the i-th program of a seeded stream. The same
// (seed, i) always yields the identical program and input data.
func FuzzProgram(seed int64, i int) Program {
	return seeded(seed, i, 0, fmt.Sprintf("fuzz-%d", i))
}

// FuzzLoopProgram generates the i-th program of the loop-corpus stream:
// the same grammar as FuzzProgram, plus at least two forced iterative
// templates (bounded for/parfor loops over batch slices with dynamic
// index bounds, trip counts <= 8). The loop corpus differentially tests
// the same epoch/batch program shapes the mini-batch workload family
// relies on.
func FuzzLoopProgram(seed int64, i int) Program {
	return seeded(seed, i, 2, fmt.Sprintf("fuzz-loop-%d", i))
}

// BytesProgram generates the program of a fuzzer's input: every grammar
// choice draws from b, eight bytes at a time, and once they run out from a
// source seeded by b, so every input, the empty one too, yields a program
// in a bounded number of draws.
func BytesProgram(b []byte) Program {
	h := fnv.New64a()
	h.Write(b)
	src := &byteSource{b: b, Source: rand.NewSource(int64(h.Sum64()))}
	r := rand.New(src)
	return fuzzProgram(r, src.Source.Int63(), r.Intn(3), "fuzz-bytes")
}

// byteSource is the rand.Source of BytesProgram: b, then Source.
type byteSource struct {
	rand.Source
	b []byte
}

func (s *byteSource) Int63() int64 {
	if len(s.b) < 8 {
		return s.Source.Int63()
	}
	v := binary.LittleEndian.Uint64(s.b)
	s.b = s.b[8:]
	return int64(v >> 1)
}

// seeded generates the i-th program of a seeded stream.
func seeded(seed int64, i, forcedLoops int, name string) Program {
	r := rand.New(rand.NewSource(seed + int64(i)*1_000_003))
	return fuzzProgram(r, seed+int64(i)*7919+1, forcedLoops, name)
}

// fuzzProgram generates one program: r makes every grammar choice, so any
// rand.Source drives it (a seeded stream, or a fuzzer's bytes). xSeed
// seeds the staged X, and y and L take the next two seeds.
func fuzzProgram(r *rand.Rand, xSeed int64, forcedLoops int, name string) Program {
	f := &fuzzer{r: r}

	rows := 15 + r.Intn(26) // 15..40
	cols := 4 + r.Intn(6)   // 4..9
	xSparsity := 1.0
	if r.Float64() < 0.3 {
		xSparsity = 0.15 + 0.15*r.Float64()
	}
	ySeed := xSeed + 1
	lSeed := xSeed + 2

	f.line("X = read($X);")
	f.line("y = read($Y);")
	f.mats = append(f.mats,
		fuzzVar{name: "X", rows: rows, cols: cols, mag: 1},
		fuzzVar{name: "y", rows: rows, cols: 1, mag: 1})

	useLabels := r.Float64() < 0.4
	if useLabels {
		f.line("L = read($L);")
		// L is categorical (1..4); keep it out of the arithmetic pool and
		// use it only through table().
		f.stmtTable(fuzzVar{name: "L", rows: rows, cols: 1, mag: 4})
	}

	nStmts := 8 + r.Intn(7) // 8..14
	for s := 0; s < nStmts; s++ {
		f.stmt()
	}
	for l := 0; l < forcedLoops; l++ {
		f.stmtLoop()
	}
	f.trailer()

	src := f.b.String()
	return Program{
		Name:   name,
		Source: src,
		Params: map[string]interface{}{"X": "/data/X", "Y": "/data/y", "L": "/data/L"},
		Setup: func(fs *hdfs.FS) {
			fs.PutMatrix("/data/X", matrix.Random(rows, cols, xSparsity, -1, 1, xSeed).Compact())
			fs.PutMatrix("/data/y", matrix.Random(rows, 1, 1.0, -1, 1, ySeed).Compact())
			fs.PutMatrix("/data/L", matrix.RandomLabels(rows, 4, lSeed).Compact())
		},
	}
}

func (f *fuzzer) line(format string, args ...interface{}) {
	fmt.Fprintf(&f.b, format+"\n", args...)
}

func (f *fuzzer) fresh(prefix string) string {
	f.next++
	return fmt.Sprintf("%s%d", prefix, f.next)
}

func (f *fuzzer) pickMat() fuzzVar { return f.mats[f.r.Intn(len(f.mats))] }

// pickSame returns a matrix with the same shape as m (possibly m itself).
func (f *fuzzer) pickSame(m fuzzVar) fuzzVar {
	var cands []fuzzVar
	for _, v := range f.mats {
		if v.rows == m.rows && v.cols == m.cols {
			cands = append(cands, v)
		}
	}
	return cands[f.r.Intn(len(cands))]
}

func (f *fuzzer) addMat(v fuzzVar) { f.mats = append(f.mats, v) }

func (f *fuzzer) addScal(name string, mag float64) {
	f.scals = append(f.scals, fuzzVar{name: name, mag: mag})
}

func (f *fuzzer) litScalar() (string, float64) {
	v := math.Round((f.r.Float64()*4-2)*100) / 100 // -2.00..2.00, 2 decimals
	return fmt.Sprintf("%g", v), math.Abs(v)
}

// stmt emits one random statement.
func (f *fuzzer) stmt() {
	for {
		if f.tryTemplate(f.r.Intn(25)) {
			return
		}
	}
}

// stmtLoop forces one of the batch-slice loop templates (22..24). X is
// always live with rows >= 15 and magnitude 1, so a retry always finds an
// eligible operand.
func (f *fuzzer) stmtLoop() {
	for {
		if f.tryTemplate(22 + f.r.Intn(3)) {
			return
		}
	}
}

// tryTemplate emits template t if its operands exist and its magnitude
// bound stays under magCap; it reports whether a statement was emitted.
func (f *fuzzer) tryTemplate(t int) bool {
	switch t {
	case 0: // elementwise matrix-matrix arithmetic on equal shapes
		a := f.pickMat()
		b := f.pickSame(a)
		op := []string{"+", "-", "*"}[f.r.Intn(3)]
		mag := a.mag + b.mag
		if op == "*" {
			mag = a.mag * b.mag
		}
		if mag > magCap {
			return false
		}
		n := f.fresh("m")
		f.line("%s = %s %s %s;", n, a.name, op, b.name)
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: mag})
		return true

	case 1: // safe elementwise division
		a := f.pickMat()
		b := f.pickSame(a)
		n := f.fresh("m")
		f.line("%s = %s / (abs(%s) + 0.5);", n, a.name, b.name)
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: a.mag * 2})
		return true

	case 2: // scalar-matrix arithmetic
		a := f.pickMat()
		lit, lm := f.litScalar()
		op := []string{"+", "-", "*"}[f.r.Intn(3)]
		mag := a.mag + lm
		if op == "*" {
			mag = a.mag * lm
		}
		if mag > magCap {
			return false
		}
		n := f.fresh("m")
		if f.r.Intn(2) == 0 {
			f.line("%s = %s %s %s;", n, a.name, op, lit)
		} else {
			f.line("%s = %s %s %s;", n, lit, op, a.name)
		}
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: mag})
		return true

	case 3: // unary builtins
		a := f.pickMat()
		n := f.fresh("m")
		switch f.r.Intn(6) {
		case 0:
			f.line("%s = sqrt(abs(%s));", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: math.Sqrt(a.mag)})
		case 1:
			f.line("%s = log(abs(%s) + 1);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: math.Log(a.mag + 1)})
		case 2:
			if a.mag > magCap {
				return false
			}
			f.line("%s = round(%s * 3);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: a.mag*3 + 1})
		case 3:
			if a.mag > 8 {
				return false
			}
			f.line("%s = exp(%s * 0.25);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: math.Exp(a.mag * 0.25)})
		case 4:
			f.line("%s = sign(%s);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: 1})
		default:
			op := []string{"floor", "ceil"}[f.r.Intn(2)]
			if a.mag > magCap {
				return false
			}
			f.line("%s = %s(%s);", n, op, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: a.mag + 1})
		}
		return true

	case 4: // transpose
		a := f.pickMat()
		n := f.fresh("m")
		f.line("%s = t(%s);", n, a.name)
		f.addMat(fuzzVar{name: n, rows: a.cols, cols: a.rows, mag: a.mag})
		return true

	case 5: // matrix multiplication (any conforming pair)
		a := f.pickMat()
		var cands []fuzzVar
		for _, v := range f.mats {
			if v.rows == a.cols {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return false
		}
		b := cands[f.r.Intn(len(cands))]
		mag := a.mag * b.mag * float64(a.cols)
		n := f.fresh("m")
		if mag > magCap {
			if mag*0.01*0.01 > magCap {
				return false
			}
			f.line("%s = (%s * 0.01) %%*%% (%s * 0.01);", n, a.name, b.name)
			mag *= 0.01 * 0.01
		} else {
			f.line("%s = %s %%*%% %s;", n, a.name, b.name)
		}
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: b.cols, mag: mag})
		return true

	case 6: // TSMM: t(m) %*% m
		a := f.pickMat()
		mag := a.mag * a.mag * float64(a.rows)
		if mag > magCap {
			return false
		}
		n := f.fresh("m")
		f.line("%s = t(%s) %%*%% %s;", n, a.name, a.name)
		f.addMat(fuzzVar{name: n, rows: a.cols, cols: a.cols, mag: mag})
		return true

	case 7: // mm-chain: t(a) %*% (a %*% v) with v a conforming vector
		a := f.pickMat()
		var cands []fuzzVar
		for _, v := range f.mats {
			if v.rows == a.cols && v.cols == 1 {
				cands = append(cands, v)
			}
		}
		if len(cands) == 0 {
			return false
		}
		v := cands[f.r.Intn(len(cands))]
		mag := a.mag * a.mag * v.mag * float64(a.cols) * float64(a.rows)
		if mag > magCap {
			return false
		}
		n := f.fresh("m")
		f.line("%s = t(%s) %%*%% (%s %%*%% %s);", n, a.name, a.name, v.name)
		f.addMat(fuzzVar{name: n, rows: a.cols, cols: 1, mag: mag})
		return true

	case 8: // full scalar aggregates
		a := f.pickMat()
		cells := float64(a.rows * a.cols)
		n := f.fresh("s")
		switch f.r.Intn(5) {
		case 0:
			if a.mag*cells > magCap {
				return false
			}
			f.line("%s = sum(%s);", n, a.name)
			f.addScal(n, a.mag*cells)
		case 1:
			f.line("%s = min(%s);", n, a.name)
			f.addScal(n, a.mag)
		case 2:
			f.line("%s = max(%s);", n, a.name)
			f.addScal(n, a.mag)
		case 3:
			f.line("%s = mean(%s);", n, a.name)
			f.addScal(n, a.mag)
		default:
			if a.mag*a.mag*cells > magCap {
				return false
			}
			f.line("%s = sum(%s * %s);", n, a.name, a.name)
			f.addScal(n, a.mag*a.mag*cells)
		}
		return true

	case 9: // ternary aggregate sum(a*b*c) over equal shapes
		a := f.pickMat()
		b := f.pickSame(a)
		c := f.pickSame(a)
		mag := a.mag * b.mag * c.mag * float64(a.rows*a.cols)
		if mag > magCap {
			return false
		}
		n := f.fresh("s")
		f.line("%s = sum(%s * %s * %s);", n, a.name, b.name, c.name)
		f.addScal(n, mag)
		return true

	case 10: // partial aggregates
		a := f.pickMat()
		n := f.fresh("m")
		switch f.r.Intn(3) {
		case 0:
			if a.mag*float64(a.cols) > magCap {
				return false
			}
			f.line("%s = rowSums(%s);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: 1, mag: a.mag * float64(a.cols)})
		case 1:
			if a.mag*float64(a.rows) > magCap {
				return false
			}
			f.line("%s = colSums(%s);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: 1, cols: a.cols, mag: a.mag * float64(a.rows)})
		default:
			f.line("%s = rowMaxs(%s);", n, a.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: 1, mag: a.mag})
		}
		return true

	case 11: // cbind / rbind (top level only: shapes must stay static)
		if f.depth > 0 {
			return false
		}
		a := f.pickMat()
		var cands []fuzzVar
		rb := f.r.Intn(2) == 0
		for _, v := range f.mats {
			if rb && v.cols == a.cols || !rb && v.rows == a.rows {
				cands = append(cands, v)
			}
		}
		b := cands[f.r.Intn(len(cands))]
		n := f.fresh("m")
		if rb {
			f.line("%s = rbind(%s, %s);", n, a.name, b.name)
			f.addMat(fuzzVar{name: n, rows: a.rows + b.rows, cols: a.cols, mag: math.Max(a.mag, b.mag)})
		} else {
			f.line("%s = cbind(%s, %s);", n, a.name, b.name)
			f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols + b.cols, mag: math.Max(a.mag, b.mag)})
		}
		return true

	case 12: // slice with literal in-range bounds
		a := f.pickMat()
		if a.rows < 2 || a.cols < 1 {
			return false
		}
		r0 := 1 + f.r.Intn(a.rows/2)
		r1 := r0 + f.r.Intn(a.rows-r0+1)
		c0 := 1 + f.r.Intn(a.cols)
		c1 := c0 + f.r.Intn(a.cols-c0+1)
		n := f.fresh("m")
		f.line("%s = %s[%d:%d, %d:%d];", n, a.name, r0, r1, c0, c1)
		f.addMat(fuzzVar{name: n, rows: r1 - r0 + 1, cols: c1 - c0 + 1, mag: a.mag})
		return true

	case 13: // left-index a constant region into a fresh copy
		a := f.pickMat()
		if a.rows < 2 || a.cols < 1 {
			return false
		}
		r0 := 1 + f.r.Intn(a.rows/2)
		r1 := r0 + f.r.Intn(a.rows-r0+1)
		c0 := 1 + f.r.Intn(a.cols)
		lit, lm := f.litScalar()
		n := f.fresh("m")
		f.line("%s = %s + 0;", n, a.name)
		f.line("%s[%d:%d, %d] = matrix(%s, rows=%d, cols=1);", n, r0, r1, c0, lit, r1-r0+1)
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: math.Max(a.mag, lm)})
		return true

	case 14: // diag of rowSums (vector -> diagonal matrix)
		a := f.pickMat()
		mag := a.mag * float64(a.cols)
		if mag > magCap || a.rows > 60 {
			return false
		}
		n := f.fresh("m")
		f.line("%s = diag(rowSums(%s));", n, a.name)
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.rows, mag: mag})
		return true

	case 15: // seq vector
		k := 2 + f.r.Intn(9)
		n := f.fresh("m")
		f.line("%s = seq(1, %d);", n, k)
		f.addMat(fuzzVar{name: n, rows: k, cols: 1, mag: float64(k)})
		return true

	case 16: // ppred against a literal threshold
		a := f.pickMat()
		lit, _ := f.litScalar()
		op := []string{"<", "<=", ">", ">=", "=="}[f.r.Intn(5)]
		n := f.fresh("m")
		f.line("%s = ppred(%s, %s, \"%s\");", n, a.name, lit, op)
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: 1})
		return true

	case 17: // as.scalar of a literal-indexed cell
		a := f.pickMat()
		i := 1 + f.r.Intn(a.rows)
		j := 1 + f.r.Intn(a.cols)
		n := f.fresh("s")
		f.line("%s = as.scalar(%s[%d, %d]);", n, a.name, i, j)
		f.addScal(n, a.mag)
		return true

	case 18: // scalar arithmetic with nrow/ncol
		if len(f.scals) == 0 {
			return false
		}
		s := f.scals[f.r.Intn(len(f.scals))]
		a := f.pickMat()
		dim := []string{"nrow", "ncol"}[f.r.Intn(2)]
		mag := s.mag + float64(a.rows)
		if mag > magCap {
			return false
		}
		n := f.fresh("s")
		f.line("%s = %s + %s(%s) * 0.5;", n, s.name, dim, a.name)
		f.addScal(n, mag)
		return true

	case 19: // data-dependent branch assigning one var in both arms
		if f.depth > 0 || len(f.scals) == 0 {
			return false
		}
		s := f.scals[f.r.Intn(len(f.scals))]
		a := f.pickMat()
		b := f.pickSame(a)
		lit, _ := f.litScalar()
		n := f.fresh("m")
		f.depth++
		f.line("if (%s > %s) {", s.name, lit)
		f.line("  %s = %s * 2;", n, a.name)
		f.line("} else {")
		f.line("  %s = %s - %s;", n, a.name, b.name)
		f.line("}")
		f.depth--
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: math.Max(a.mag*2, a.mag+b.mag)})
		return true

	case 20: // counter loop (for, while, or rarely parfor) updating a matrix
		if f.depth > 0 {
			return false
		}
		a := f.pickMat()
		b := f.pickSame(a)
		mag := a.mag + 3*(b.mag+3)
		if mag > magCap {
			return false
		}
		n := f.fresh("m")
		iv := f.fresh("i")
		f.line("%s = %s + 0;", n, a.name)
		f.depth++
		switch f.r.Intn(4) {
		case 0:
			f.line("%s = 0;", iv)
			f.line("while (%s < 3) {", iv)
			f.line("  %s = %s + %s * 0.5;", n, n, b.name)
			f.line("  %s = %s + 1;", iv, iv)
			f.line("}")
		case 1: // parfor over disjoint rows: the canonical independent loop
			rows := a.rows
			if rows > 3 {
				rows = 3
			}
			f.line("parfor (%s in 1:%d) {", iv, rows)
			f.line("  %s[%s, 1] = matrix(%s * 0.25, rows=1, cols=1);", n, iv, iv)
			f.line("}")
		default:
			f.line("for (%s in 1:3) {", iv)
			f.line("  %s = %s + %s * 0.5 + %s;", n, n, b.name, iv)
			f.line("}")
		}
		f.depth--
		f.addMat(fuzzVar{name: n, rows: a.rows, cols: a.cols, mag: mag + 3})
		return true

	case 22: // batch-slice for loop: dynamic index bounds from the loop var
		if f.depth > 0 {
			return false
		}
		a := f.pickMat()
		if a.rows < 4 {
			return false
		}
		mag := a.mag*float64(a.rows) + 1
		if mag > magCap {
			return false
		}
		nb := 2 + f.r.Intn(3) // 2..4 batches, trip count <= 8
		bs := a.rows / nb
		acc := f.fresh("m")
		iv := f.fresh("i")
		lo := f.fresh("s")
		hi := f.fresh("s")
		f.line("%s = matrix(0, rows=1, cols=%d);", acc, a.cols)
		f.depth++
		f.line("for (%s in 1:%d) {", iv, nb)
		f.line("  %s = (%s - 1) * %d + 1;", lo, iv, bs)
		f.line("  %s = %s * %d;", hi, iv, bs)
		if bs*nb < a.rows && f.r.Intn(2) == 0 {
			// Absorb the remainder rows into the last batch, the same
			// shape as the mini-batch scripts' ragged final slice.
			f.line("  if (%s == %d) {", iv, nb)
			f.line("    %s = %d;", hi, a.rows)
			f.line("  }")
		}
		f.line("  %s = %s + colSums(%s[%s:%s, 1:%d]);", acc, acc, a.name, lo, hi, a.cols)
		f.line("}")
		f.depth--
		f.addMat(fuzzVar{name: acc, rows: 1, cols: a.cols, mag: mag})
		return true

	case 23: // nested epoch x batch loop: the mini-batch gradient shape
		if f.depth > 0 {
			return false
		}
		a := f.pickMat()
		if a.rows < 4 {
			return false
		}
		ne := 2 + f.r.Intn(2) // 2..3 epochs
		nb := 2 + f.r.Intn(2) // 2..3 batches per epoch
		mag := a.mag*float64(a.rows)*float64(ne) + 1
		if mag > magCap {
			return false
		}
		bs := a.rows / nb
		acc := f.fresh("m")
		ev := f.fresh("i")
		bv := f.fresh("i")
		lo := f.fresh("s")
		hi := f.fresh("s")
		f.line("%s = matrix(0, rows=1, cols=%d);", acc, a.cols)
		f.depth++
		f.line("for (%s in 1:%d) {", ev, ne)
		f.line("  for (%s in 1:%d) {", bv, nb)
		f.line("    %s = (%s - 1) * %d + 1;", lo, bv, bs)
		f.line("    %s = %s * %d;", hi, bv, bs)
		f.line("    %s = %s + colSums(%s[%s:%s, 1:%d]) / %s;", acc, acc, a.name, lo, hi, a.cols, ev)
		f.line("  }")
		f.line("}")
		f.depth--
		f.addMat(fuzzVar{name: acc, rows: 1, cols: a.cols, mag: mag})
		return true

	case 24: // parfor over per-batch row slices into disjoint output rows
		if f.depth > 0 {
			return false
		}
		a := f.pickMat()
		if a.rows < 4 {
			return false
		}
		mag := a.mag*float64(a.rows) + 1
		if mag > magCap {
			return false
		}
		nb := 2 + f.r.Intn(3) // 2..4 batches, trip count <= 8
		bs := a.rows / nb
		out := f.fresh("m")
		iv := f.fresh("i")
		f.line("%s = matrix(0, rows=%d, cols=1);", out, nb)
		f.depth++
		f.line("parfor (%s in 1:%d) {", iv, nb)
		f.line("  %s[%s, 1] = matrix(sum(%s[((%s - 1) * %d + 1):(%s * %d), 1:%d]), rows=1, cols=1);",
			out, iv, a.name, iv, bs, iv, bs, a.cols)
		f.line("}")
		f.depth--
		f.addMat(fuzzVar{name: out, rows: nb, cols: 1, mag: mag})
		return true

	default: // table over a fresh label read-back via min/max clamp
		if f.depth > 0 {
			return false
		}
		// ppred-built binary labels: table(seq, 1+ppred) is 2 columns.
		a := f.pickMat()
		if a.cols != 1 {
			return false
		}
		lit, _ := f.litScalar()
		lab := f.fresh("m")
		n := f.fresh("m")
		s := f.fresh("s")
		f.line("%s = 1 + ppred(%s, %s, \">\");", lab, a.name, lit)
		f.line("%s = table(seq(1, %d), %s);", n, a.rows, lab)
		f.line("%s = sum(%s);", s, n)
		f.addMat(fuzzVar{name: lab, rows: a.rows, cols: 1, mag: 2})
		f.addScal(s, float64(a.rows))
		f.extra = append(f.extra, n)
		return true
	}
}

// stmtTable emits the table() consumption of the categorical input L.
// The table's column count is data dependent, so the result is write-only
// plus an aggregate; it never enters the shape-tracked operand pool.
func (f *fuzzer) stmtTable(l fuzzVar) {
	n := f.fresh("m")
	s := f.fresh("s")
	f.line("%s = table(seq(1, %d), %s);", n, l.rows, l.name)
	f.line("%s = sum(%s);", s, n)
	f.addScal(s, float64(l.rows))
	f.extra = append(f.extra, n)
}

// trailer writes all matrices and prints/writes all scalars.
func (f *fuzzer) trailer() {
	for _, m := range f.mats {
		f.line("write(%s, \"/out/fz/%s\");", m.name, m.name)
	}
	for _, name := range f.extra {
		f.line("write(%s, \"/out/fz/%s\");", name, name)
	}
	for _, s := range f.scals {
		f.line("print(\"%s=\" + %s);", s.name, s.name)
		f.line("wm_%s = matrix(%s, rows=1, cols=1);", s.name, s.name)
		f.line("write(wm_%s, \"/out/fz/s_%s\");", s.name, s.name)
	}
}
