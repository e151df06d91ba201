package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"

	"aibench"
)

// machineTag identifies where and under what a result was measured,
// keyed the way tuneconfig envelopes key a machine (goarch, gomaxprocs,
// kernel) plus what a tuneconfig leaves implicit.
type machineTag struct {
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	SuiteSHA   string `json:"suite_sha"`
	Kernel     string `json:"kernel"`
	// Tuning is the tuned kernel's config provenance ("builtin" unless
	// a tuneconfig was applied), recorded whatever the active kernel.
	Tuning string `json:"tuning"`
}

func newMachineTag(suite *aibench.Suite) machineTag {
	return machineTag{
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		SuiteSHA:   suite.SHA(),
		Kernel:     aibench.ActiveKernel(),
		Tuning:     aibench.TuningSource(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo; "unknown"
// where there is none.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// checkPinnedEnv refuses an environment that would silently change
// what the benchmark measures: a kernel or tuning chosen outside the
// benchmark makes its numbers incomparable with the baseline's.
func checkPinnedEnv() error {
	for _, name := range []string{"AIBENCH_KERNEL", aibench.EnvTuneFrom} {
		if v, ok := os.LookupEnv(name); ok {
			return fmt.Errorf("%s=%q is set; unset it: the benchmark measures the default kernel and tuning", name, v)
		}
	}
	return nil
}
