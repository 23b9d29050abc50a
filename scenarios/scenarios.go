// Package scenarios holds the committed run descriptions (workload.RunSpec
// documents): the ones elastic-serve's examples and gates run, and under
// sweeps/ the ones elastic-bench's service sweeps run.
package scenarios

import "embed"

//go:embed *.json sweeps/*.json
var FS embed.FS
