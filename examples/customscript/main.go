// Customscript: the declarative promise end to end — write your own ML
// algorithm in DML, and the system compiles it, explains the generated
// runtime plan under two memory configurations, optimizes the resource
// configuration, and executes it on real data. The script here is a
// ridge-regularized PCA-whitening-style pipeline not shipped with the
// library, demonstrating that the optimizer is program-agnostic.
package main

import (
	"fmt"
	"log"
	"os"

	"elasticml/internal/conf"
	"elasticml/internal/dml"
	"elasticml/internal/hdfs"
	"elasticml/internal/hop"
	"elasticml/internal/lop"
	"elasticml/internal/matrix"
	"elasticml/internal/opt"
	"elasticml/internal/rt"
)

const script = `# column standardization + gram matrix + ridge spectrum probe
X = read($X);
n = nrow(X);
m = ncol(X);

# center and scale columns
mu = colSums(X) / n;
Xc = X - mu;
ss = colSums(Xc ^ 2) / (n - 1);
sd = sqrt(ss);
Xs = Xc / sd;

# gram matrix and its regularized trace diagnostics
G = (t(Xs) %*% Xs) / (n - 1);
lambda = $reg;
ell = matrix(1, rows=m, cols=1) * lambda;
Greg = G + diag(ell);

tr = sum(diag(Greg));
frob = sqrt(sum(Greg ^ 2));
print("TRACE " + tr);
print("FROBENIUS " + frob);

# power iteration for the leading eigenvalue
v = matrix(1, rows=m, cols=1);
v = v / sqrt(sum(v ^ 2));
for (i in 1:20) {
  w = Greg %*% v;
  v = w / sqrt(sum(w ^ 2));
}
lead = sum(v * (Greg %*% v));
print("LEADING_EIGENVALUE " + lead);
write(v, $B);
`

func main() {
	cc := conf.DefaultCluster()
	fs := hdfs.New()
	n, m := 2000, 40
	fs.PutMatrix("/data/X", matrix.Random(n, m, 1.0, -2, 2, 7))

	params := map[string]interface{}{"X": "/data/X", "B": "/out/v", "reg": 0.1}
	prog, err := dml.Parse(script)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, params).Compile(prog, script)
	if err != nil {
		log.Fatal(err)
	}

	// The same script compiles into different plans under different
	// memory configurations.
	small := lop.Select(hp, cc, conf.NewResources(cc.MinHeap(), cc.MinHeap(), hp.NumLeaf))
	large := lop.Select(hp, cc, conf.NewResources(4*conf.GB, cc.MinHeap(), hp.NumLeaf))
	fmt.Printf("plan at minimum CP: %d MR jobs; plan at 4GB CP: %d MR jobs\n\n",
		lop.NumMRJobs(small.Blocks), lop.NumMRJobs(large.Blocks))

	optimizer := opt.New(cc)
	res := optimizer.Optimize(hp)
	fmt.Printf("optimizer: %s (estimated %.2fs)\n\n", res.Res.String(), res.Cost)

	plan := lop.Select(hp, cc, res.Res)
	fmt.Println(lop.Explain(plan))

	ip := rt.New(rt.ModeValue, fs, cc, res.Res)
	ip.Out = os.Stdout
	if err := ip.Run(plan); err != nil {
		log.Fatal(err)
	}
	v, err := fs.Stat("/out/v")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nleading eigenvector written: %dx%d, executed in %.3f simulated seconds\n",
		v.Rows, v.Cols, ip.SimTime)
}
