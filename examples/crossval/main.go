// Crossval: k-fold cross-validation expressed as a task-parallel parfor
// loop — the classic use case for task-parallel ML programs (the paper's
// future-work direction, implemented here as an extension). Each fold
// trains a ridge model on its complement and scores the held-out rows;
// folds are independent, so parfor workers process them concurrently and
// the simulated wall-clock time divides by the worker count.
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
	"elasticml/internal/rt"
)

const script = `# 4-fold cross-validated ridge regression
X = read($X);
y = read($Y);
n = nrow(X);
m = ncol(X);
k = 4;
fold = n / k;
lambda = $reg;

rmse = matrix(0, rows=k, cols=1);
parfor (f in 1:4) {
  lo = (f - 1) * fold + 1;
  hi = f * fold;

  # held-out fold
  Xte = X[lo:hi, ];
  yte = y[lo:hi, ];

  # training complement: rows before and after the fold
  sum_xx = t(X) %*% X - t(Xte) %*% Xte;
  sum_xy = t(X) %*% y - t(Xte) %*% yte;

  ell = matrix(1, rows=m, cols=1) * lambda;
  beta = solve(sum_xx + diag(ell), sum_xy);

  resid = yte - Xte %*% beta;
  rmse[f, 1] = sqrt(sum(resid ^ 2) / fold);
}

print("MEAN_RMSE " + (sum(rmse) / k));
write(rmse, $B);
`

func main() {
	cc := conf.DefaultCluster()
	fs := hdfs.New()
	n, m := 2000, 12
	x := matrix.Random(n, m, 1.0, -1, 1, 3)
	beta := matrix.Random(m, 1, 1.0, -2, 2, 4)
	y := matrix.Mul(x, beta) // noiseless: RMSE ~ 0
	fs.PutMatrix("/data/X", x)
	fs.PutMatrix("/data/y", y)

	params := map[string]interface{}{"X": "/data/X", "Y": "/data/y", "B": "/out/rmse", "reg": 1e-8}
	prog, err := dml.Parse(script)
	if err != nil {
		log.Fatal(err)
	}
	hp, err := hop.NewCompiler(fs, params).Compile(prog, script)
	if err != nil {
		log.Fatal(err)
	}

	run := func(cores int) float64 {
		res := conf.NewResources(2*conf.GB, 512*conf.MB, hp.NumLeaf)
		res.CPCores = cores
		plan := lop.Select(hp, cc, res)
		ip := rt.New(rt.ModeValue, fs, cc, res)
		if cores == 1 {
			ip.Out = os.Stdout
		}
		if err := ip.Run(plan); err != nil {
			log.Fatal(err)
		}
		return ip.SimTime
	}

	t1 := run(1)
	t4 := run(4)
	rmse, err := fs.Stat("/out/rmse")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-fold RMSE written to %s (%dx%d)\n", rmse.Name, rmse.Rows, rmse.Cols)
	fmt.Printf("simulated time: %.4fs with 1 worker, %.4fs with 4 workers (%.1fx)\n",
		t1, t4, t1/t4)
}
