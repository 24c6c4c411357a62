package main

import (
	"runtime/metrics"
	"syscall"
	"time"
)

// processStart is taken during package initialisation, before main
// runs, and stands for the process start in setup_s.
var processStart = time.Now()

// sample is a snapshot of the process's own cost counters. The
// difference of two samples is the cost of what ran between them.
type sample struct {
	wall     time.Time
	cpu      float64 // user+system CPU seconds
	allocs   float64 // heap bytes allocated, cumulative
	gcCPU    float64 // GC CPU seconds, cumulative (runtime estimate)
	gcCycles float64 // completed GC cycles, cumulative
}

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func takeSample() sample {
	ms := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		ms[i].Name = name
	}
	metrics.Read(ms)
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return sample{
		wall:     time.Now(),
		cpu:      float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9,
		allocs:   metricValue(ms[0]),
		gcCPU:    metricValue(ms[1]),
		gcCycles: metricValue(ms[2]),
	}
}

func metricValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// cost is the difference between two samples.
type cost struct {
	wall, cpu, allocs, gcCPU, gcCycles float64
}

func (s sample) since(from sample) cost {
	return cost{
		wall:     s.wall.Sub(from.wall).Seconds(),
		cpu:      s.cpu - from.cpu,
		allocs:   s.allocs - from.allocs,
		gcCPU:    s.gcCPU - from.gcCPU,
		gcCycles: s.gcCycles - from.gcCycles,
	}
}

func (c *cost) add(d cost) {
	c.wall += d.wall
	c.cpu += d.cpu
	c.allocs += d.allocs
	c.gcCPU += d.gcCPU
	c.gcCycles += d.gcCycles
}

// peakRSSMB is the process's resident-set high-water mark. Linux
// reports ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}
