package bench

import (
	"fmt"

	"elasticml/internal/conf"
	"elasticml/internal/cost"
	"elasticml/internal/datagen"
	"elasticml/internal/dml"
	"elasticml/internal/lop"
	"elasticml/internal/scripts"
)

// Figure1 regenerates the cost-surface heatmaps: estimated runtime of
// LinregDS and LinregCG on X(8GB dense1000)/y(8MB) under CP x MR memory
// configurations from 1 to 20 GB.
func (r *Runner) Figure1() error {
	s := datagen.Scenario{Size: "M", Cells: 1e9, Cols: 1000, Sparsity: 1.0}
	points := []conf.Bytes{}
	step := 1
	if r.Quick {
		step = 4
	}
	for g := 1; g <= 20; g += step {
		points = append(points, conf.Bytes(g)*conf.GB)
	}
	for _, spec := range []scripts.Spec{scripts.LinregDS(), scripts.LinregCG()} {
		hp, _, err := r.compileScenario(spec, s)
		if err != nil {
			return err
		}
		est := cost.NewEstimator(r.CC)
		r.printf("Figure 1: %s, X(8GB dense1000) — estimated runtime [s]\n", spec.Name)
		r.printf("%8s", "MR\\CP")
		for _, cp := range points {
			r.printf(" %7s", cp)
		}
		r.printf("\n")
		for _, mrh := range points {
			r.printf("%8s", mrh)
			for _, cp := range points {
				res := conf.NewResources(cp, mrh, hp.NumLeaf)
				c := est.ProgramCost(lop.Select(hp, r.CC, res))
				r.printf(" %7.0f", c)
			}
			r.printf("\n")
		}
		r.printf("\n")
	}
	return nil
}

// Table1 regenerates the ML program characteristics overview.
func (r *Runner) Table1() error {
	r.printf("Table 1: Overview ML Program Characteristics\n")
	r.printf("%-10s %7s %8s %3s %5s %7s %7s %6s\n",
		"Prog.", "#Lines", "#Blocks", "?", "Icp.", "lambda", "eps", "Maxi.")
	for _, spec := range scripts.All() {
		prog, err := dml.Parse(spec.Source)
		if err != nil {
			return err
		}
		blocks := dml.CountBlocks(dml.BuildBlocks(prog.Stmts))
		unk := "N"
		if spec.HasUnknowns {
			unk = "Y"
		}
		eps := "N/A"
		if spec.Iterative || spec.Name != "LinregDS" {
			eps = fmt.Sprintf("%g", spec.Params["tol"])
		}
		maxi := "N/A"
		if spec.Name != "LinregDS" {
			maxi = fmt.Sprintf("%g", spec.Params["maxi"])
			if spec.Name == "MLogreg" || spec.Name == "GLM" {
				maxi = fmt.Sprintf("%g/%g", spec.Params["moi"], spec.Params["mii"])
			}
		}
		r.printf("%-10s %7d %8d %3s %5g %7g %7s %6s\n",
			spec.Name, prog.Lines, blocks, unk,
			spec.Params["icpt"], spec.Params["reg"], eps, maxi)
	}
	r.printf("\n")
	return nil
}

// Table2 regenerates the Opt resource configurations found for LinregDS
// across scenarios and data shapes.
func (r *Runner) Table2() error {
	r.printf("Table 2: Opt Resource Config, LinregDS [CP/max task heap]\n")
	shapes := datagen.Shapes()
	r.printf("%-9s", "Scenario")
	for _, sh := range shapes {
		name := datagen.New("XS", sh.Cols, sh.Sparsity).ShapeName()
		r.printf(" %14s", name)
	}
	r.printf("\n")
	maxSize := "XL"
	if r.Quick {
		maxSize = "M"
	}
	for _, size := range sizesUpTo(maxSize) {
		r.printf("%-9s", size)
		for _, sh := range shapes {
			s := datagen.New(size, sh.Cols, sh.Sparsity)
			res, err := r.EndToEnd(scripts.LinregDS(), s, RunConfig{Optimize: true})
			if err != nil {
				return err
			}
			r.printf(" %14s", res.Res.String())
		}
		r.printf("\n")
	}
	r.printf("\n")
	return nil
}

// endToEndFigure runs one baseline-comparison figure: a program across
// scenarios and the four data shapes, comparing the static baselines with
// initial resource optimization (adaptation disabled, §5.2).
func (r *Runner) endToEndFigure(title string, spec scripts.Spec, maxSize string, classes int64) error {
	r.printf("%s: %s — end-to-end execution time [s]\n", title, spec.Name)
	baselines := Baselines(r.CC)
	sizes := sizesUpTo(maxSize)
	if r.Quick && len(sizes) > 3 {
		sizes = sizes[:3]
	}
	for _, sh := range datagen.Shapes() {
		shapeName := datagen.New("XS", sh.Cols, sh.Sparsity).ShapeName()
		r.printf("  shape %s\n", shapeName)
		r.printf("    %-9s %10s", "Scenario", "#rows")
		for _, b := range baselines {
			r.printf(" %8s", b.Name)
		}
		r.printf(" %8s %14s\n", "Opt", "Opt config")
		for _, size := range sizes {
			s := datagen.New(size, sh.Cols, sh.Sparsity)
			r.printf("    %-9s %10d", size, s.Rows())
			for _, b := range baselines {
				res, err := r.EndToEnd(spec, s, RunConfig{
					Res: conf.NewResources(b.CP, b.MR, 1), Classes: classes})
				if err != nil {
					return err
				}
				r.printf(" %s", fmtSecs(res.SimSeconds))
			}
			optRes, err := r.EndToEnd(spec, s, RunConfig{Optimize: true, Classes: classes})
			if err != nil {
				return err
			}
			r.printf(" %s %14s\n", fmtSecs(optRes.SimSeconds), optRes.Res.String())
		}
	}
	r.printf("\n")
	return nil
}

// Figure7 regenerates the LinregDS baseline comparison (scenarios XS-XL).
func (r *Runner) Figure7() error {
	max := "XL"
	if r.Quick {
		max = "M"
	}
	return r.endToEndFigure("Figure 7", scripts.LinregDS(), max, 0)
}

// Figure8 regenerates the LinregCG comparison (scenarios XS-L).
func (r *Runner) Figure8() error {
	return r.endToEndFigure("Figure 8", scripts.LinregCG(), r.maxL(), 0)
}

// Figure9 regenerates the L2SVM comparison (scenarios XS-L).
func (r *Runner) Figure9() error {
	return r.endToEndFigure("Figure 9", scripts.L2SVM(), r.maxL(), 0)
}

// Figure10 regenerates the MLogreg comparison (scenarios XS-L, initial
// optimization only — unknowns make it suboptimal, motivating §4).
func (r *Runner) Figure10() error {
	return r.endToEndFigure("Figure 10", scripts.MLogreg(), r.maxL(), 20)
}

// Figure11 regenerates the GLM comparison (scenarios XS-L).
func (r *Runner) Figure11() error {
	return r.endToEndFigure("Figure 11", scripts.GLM(), r.maxL(), 0)
}

func (r *Runner) maxL() string {
	if r.Quick {
		return "M"
	}
	return "L"
}
