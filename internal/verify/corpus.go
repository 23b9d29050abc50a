package verify

import (
	"fmt"

	"elasticml/internal/hdfs"
	"elasticml/internal/matrix"
	"elasticml/internal/scripts"
)

// Program is one differential-test subject: a DML source with parameters
// and a Setup that stages its input matrices onto a fresh file system.
// The harness calls Setup once per program, and every run reads clones of
// the file system it staged.
type Program struct {
	Name   string
	Source string
	Params map[string]interface{}
	Setup  func(fs *hdfs.FS)
}

// Corpus sizes: small enough that the naive reference interpreter and the
// tiny-heap configurations stay fast, large enough that n >> m keeps the
// regression systems well-conditioned.
const (
	corpusN = 80 // rows of X
	corpusM = 8  // cols of X
)

// regressionSetup stages X and a y with an exact linear relationship
// y = X %*% beta, so solvers converge quickly and identically.
func regressionSetup(seed int64) func(fs *hdfs.FS) {
	return func(fs *hdfs.FS) {
		x := matrix.Random(corpusN, corpusM, 1.0, -1, 1, seed)
		beta := matrix.Random(corpusM, 1, 1.0, -1, 1, seed+1)
		fs.PutMatrix("/data/X", x.Compact())
		fs.PutMatrix("/data/y", matrix.Mul(x, beta).Compact())
	}
}

// Corpus returns the paper's five evaluation scripts plus an
// intercept-enabled LinregDS variant (exercising append and the
// left-indexed "do not regularize the intercept" assignment), each staged
// with small deterministic inputs.
func Corpus() []Program {
	var out []Program
	for _, spec := range scripts.All() {
		p := Program{Name: spec.Name, Source: spec.Source, Params: cloneParams(spec.Params)}
		switch spec.Name {
		case "LinregDS", "LinregCG":
			p.Setup = regressionSetup(42)
		case "L2SVM":
			// Labels in {-1, +1}, linearly separable by construction.
			p.Setup = func(fs *hdfs.FS) {
				x := matrix.Random(corpusN, corpusM, 1.0, -1, 1, 43)
				w := matrix.Random(corpusM, 1, 1.0, -1, 1, 44)
				s := matrix.Mul(x, w)
				y := matrix.Filled(corpusN, 1, 0)
				for i := 0; i < corpusN; i++ {
					if s.At(i, 0) >= 0 {
						y.Set(i, 0, 1)
					} else {
						y.Set(i, 0, -1)
					}
				}
				fs.PutMatrix("/data/X", x.Compact())
				fs.PutMatrix("/data/y", y.Compact())
			}
		case "MLogreg":
			// Integer class labels 1..3 at the script's y_labels path.
			p.Setup = func(fs *hdfs.FS) {
				x := matrix.Random(corpusN, corpusM, 1.0, -1, 1, 45)
				fs.PutMatrix("/data/X", x.Compact())
				fs.PutMatrix("/data/y_labels", matrix.RandomLabels(corpusN, 3, 46).Compact())
			}
		case "GLM":
			// Gaussian family with identity link: dfam=1, vpow=0, link=2.
			// Tiny ridge keeps the inner CG system nonsingular.
			p.Params["vpow"] = float64(0)
			p.Params["link"] = float64(2)
			p.Params["reg"] = 1e-10
			p.Params["moi"] = float64(10)
			p.Params["mii"] = float64(25)
			p.Setup = regressionSetup(47)
		default:
			panic(fmt.Sprintf("verify: corpus has no setup for script %q", spec.Name))
		}
		out = append(out, p)
	}

	ds, _ := scripts.ByName("LinregDS")
	icpt := Program{
		Name:   "LinregDS-icpt1",
		Source: ds.Source,
		Params: cloneParams(ds.Params),
		Setup:  regressionSetup(48),
	}
	icpt.Params["icpt"] = float64(1)
	out = append(out, icpt)

	// The iterative mini-batch family: epoch/batch for-loops with dynamic
	// index bounds. LR and MLP2 run with 3 batches (80 rows do not divide
	// evenly, so the remainder-batch branch executes); Linreg keeps the
	// default 4 to cover the evenly-divisible path.
	for _, spec := range scripts.Minibatch() {
		p := Program{Name: spec.Name, Source: spec.Source, Params: cloneParams(spec.Params)}
		switch spec.Name {
		case "MinibatchLR":
			// Labels in {0,1}, linearly separable by construction.
			p.Params["batches"] = float64(3)
			p.Setup = func(fs *hdfs.FS) {
				x := matrix.Random(corpusN, corpusM, 1.0, -1, 1, 49)
				w := matrix.Random(corpusM, 1, 1.0, -1, 1, 50)
				s := matrix.Mul(x, w)
				y := matrix.Filled(corpusN, 1, 0)
				for i := 0; i < corpusN; i++ {
					if s.At(i, 0) >= 0 {
						y.Set(i, 0, 1)
					}
				}
				fs.PutMatrix("/data/X", x.Compact())
				fs.PutMatrix("/data/y", y.Compact())
			}
		case "MinibatchLinreg":
			p.Setup = regressionSetup(51)
		case "MLP2":
			p.Params["batches"] = float64(3)
			p.Setup = regressionSetup(52)
		default:
			panic(fmt.Sprintf("verify: corpus has no setup for script %q", spec.Name))
		}
		out = append(out, p)
	}
	return out
}

func cloneParams(p map[string]interface{}) map[string]interface{} {
	out := make(map[string]interface{}, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}
