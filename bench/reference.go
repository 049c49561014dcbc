package main

import (
	"sync/atomic"
	"time"
)

// The reference machine is a virtual machine on a shared host. As other
// tenants load the host, the same code runs 10–50 % slower for seconds to
// minutes at a time, which no number of repeats inside one run averages
// away. Host times are therefore reported at the reference speed: a fixed
// kernel, a pointer chase through 1 MiB that stays in a core's L2 cache, is
// timed before every mission, outside the mission's own timing, and each
// time of a pass is multiplied by refNominalMs over the kernel's median time
// in that pass. The kernel is benchmark code that no change to the program
// touches, so a slower program still reads slower. bench/README.md records
// how well the kernel tracks the missions; every run also prints the
// unscaled medians.
const (
	refEntries   = 1 << 18 // int32 links: 1 MiB
	refSteps     = 1 << 16 // timed steps
	refNominalMs = 0.55    // the kernel's time on the reference machine, unloaded
)

// refLinks is one cycle through every entry (Sattolo's shuffle), so each
// step depends on the load before it.
var refLinks = func() []int32 {
	links := make([]int32, refEntries)
	for i := range links {
		links[i] = int32(i)
	}
	x := uint64(0x9e3779b97f4a7c15)
	for i := refEntries - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		links[i], links[j] = links[j], links[i]
	}
	return links
}()

// refSink keeps the compiler from dropping the chase.
var refSink atomic.Int32

func chase(steps int) {
	i := int32(0)
	for ; steps > 0; steps-- {
		i = refLinks[i]
	}
	refSink.Add(i)
}

// referenceMs loads the kernel's links into cache, whatever the mission
// before it left there, and times refSteps steps. A linear scan loads them
// in a small fraction of the time a chase through them would take.
func referenceMs() float64 {
	var sum int32
	for _, l := range refLinks {
		sum += l
	}
	refSink.Add(sum)
	start := time.Now()
	chase(refSteps)
	return float64(time.Since(start)) / 1e6
}
