package dist

import (
	"fmt"

	"dwmaxerr/internal/mr"
)

// Cluster execution: TCP workers cannot receive Go closures, so each job
// that may run on an mr.Coordinator has one constructor taking its Source
// and a serializable parameter value. The driver calls it to build the
// Job it runs, and the factory registered under the job's name calls it
// again on every worker, over the same file reopened from a shared path
// (the HDFS stand-in) — the equivalent of shipping a job JAR plus its
// configuration. Drivers stay engine-agnostic: over a FileSource a job
// carries its Params and runs on either engine; over an in-memory source
// it carries none and a coordinator rejects it before sending a task.

// Names of the cluster-capable jobs (also their mr.Job names).
const (
	meansJobName       = "chunk-means"
	dgreedyHistJobName = "dgreedy-hist"
	dgreedySelJobName  = "dgreedy-select"
	evalJobName        = "evaluate-maxabs"
	conJobName         = "con"
)

func init() {
	registerFileJob(meansJobName, chunkMeansJob)
	registerFileJob(dgreedyHistJobName, dgreedyHistJob)
	registerFileJob(dgreedySelJobName, dgreedySelectJob)
	registerFileJob(evalJobName, evaluateMaxJob)
	registerFileJob(conJobName, conJob)
}

// fileParams is the Params blob of a cluster job: the dataset path every
// worker reopens, plus the constructor's own parameters.
type fileParams[P any] struct {
	Path string
	P    P
}

// clusterJob stamps job.Params when src is a FileSource, so a coordinator
// can ship the job to workers. Jobs over other sources are returned
// unstamped: they run on in-process engines only.
func clusterJob[P any](job *mr.Job, src Source, p P) *mr.Job {
	if fs, ok := src.(*FileSource); ok {
		job.Params = mr.MustGobEncode(fileParams[P]{Path: fs.Path, P: p})
	}
	return job
}

// registerFileJob registers the worker-side factory of a cluster job: it
// decodes what clusterJob stamped, reopens the file and calls build, the
// constructor the driver used.
func registerFileJob[P any](name string, build func(Source, P) *mr.Job) {
	mr.RegisterJob(name, func(params []byte) (*mr.Job, error) {
		var fp fileParams[P]
		if err := mr.GobDecode(params, &fp); err != nil {
			return nil, fmt.Errorf("dist: bad %s params: %w", name, err)
		}
		src, err := NewFileSource(fp.Path)
		if err != nil {
			return nil, err
		}
		if err := padCheck(src.N()); err != nil {
			return nil, err
		}
		return build(src, fp.P), nil
	})
}
