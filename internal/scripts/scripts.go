// Package scripts holds the DML sources of the five ML programs used in
// the paper's evaluation (§5.1, Table 1): two linear regression solvers
// (direct solve and conjugate gradient), an L2-regularized SVM, multinomial
// logistic regression, and a generalized linear model. The scripts are
// full-fledged: they handle intercepts, regularization, convergence
// criteria, and compute additional statistics, mirroring Apache SystemML's
// algorithm library in structure.
package scripts

// Spec describes one ML program with its default script-level parameters
// (Table 1 columns: icp, lambda, eps, maxiter).
type Spec struct {
	// Name is the short program name, e.g. "LinregDS".
	Name string
	// Source is the DML script text.
	Source string
	// Params are the default values for the script's $ parameters.
	Params map[string]interface{}
	// HasUnknowns records whether the program exhibits unknown dimensions
	// during initial compilation ('?' column of Table 1).
	HasUnknowns bool
	// Iterative indicates loop-dominated runtime behaviour.
	Iterative bool
}

// All returns the five evaluation programs in the paper's order.
func All() []Spec {
	return []Spec{LinregDS(), LinregCG(), L2SVM(), MLogreg(), GLM()}
}

// ByName returns the program with the given name, or ok=false. It knows
// the paper's five batch programs and the iterative mini-batch family, and
// builds only the spec it returns: the daemon resolves one per submission.
func ByName(name string) (Spec, bool) {
	if build, ok := byName[name]; ok {
		return build(), true
	}
	return Spec{}, false
}

// byName maps each program of All and Minibatch to its constructor.
var byName = map[string]func() Spec{
	"LinregDS": LinregDS, "LinregCG": LinregCG, "L2SVM": L2SVM, "MLogreg": MLogreg, "GLM": GLM,
	"MinibatchLR": MinibatchLR, "MinibatchLinreg": MinibatchLinreg, "MLP2": MLP2,
}

func defaultParams() map[string]interface{} {
	return map[string]interface{}{
		"X":       "/data/X",
		"Y":       "/data/y",
		"B":       "/out/beta",
		"icpt":    float64(0),
		"reg":     0.01,
		"tol":     1e-9,
		"maxi":    float64(5),
		"moi":     float64(5), // max outer iterations (MLogreg/GLM)
		"mii":     float64(5), // max inner iterations (MLogreg/GLM)
		"dfam":    float64(1), // GLM distribution family
		"vpow":    float64(1), // GLM variance power (1=Poisson)
		"link":    float64(1), // GLM link (1=log)
		"lpow":    float64(0), // GLM link power
		"disp":    float64(1), // GLM dispersion
		"classes": float64(0), // informational only
	}
}
