package compute

import (
	"fmt"
	"math"
	"time"
)

// CloudLink models the network between the MAV's edge computer and a cloud
// (or local co-processing) server, in plain wire-friendly units. The paper's
// performance case study uses a 1 Gb/s LAN standing in for a future 5G link.
type CloudLink struct {
	Name string `json:"name,omitempty"`
	// BandwidthMbps is the usable throughput in megabits per second.
	BandwidthMbps float64 `json:"bandwidth_mbps"`
	// RTTMillis is the round-trip latency in milliseconds. The engine flies
	// it in whole nanoseconds (see RTT).
	RTTMillis float64 `json:"rtt_ms,omitempty"`
	// DropProbability is the chance that a request/response exchange must be
	// retried once (adds one RTT plus retransmission of the payload).
	DropProbability float64 `json:"drop_probability,omitempty"`
}

// LAN1Gbps returns the paper's cloud-offload link: a 1 Gb/s LAN with a short
// round-trip time, emulating a future 5G deployment.
func LAN1Gbps() CloudLink {
	return CloudLink{Name: "lan-1gbps", BandwidthMbps: 1000, RTTMillis: 2}
}

// LTE returns a contemporary cellular link, useful for sensitivity studies
// around the offloading case study.
func LTE() CloudLink {
	return CloudLink{Name: "lte", BandwidthMbps: 20, RTTMillis: 60}
}

// RTT returns the round-trip latency the engine flies: rtt_ms in whole
// nanoseconds, rounded to the nearest one.
func (l CloudLink) RTT() time.Duration {
	return time.Duration(math.Round(l.RTTMillis * float64(time.Millisecond)))
}

// Normalize returns the link with rtt_ms on the whole-nanosecond grid the
// engine flies, so normalizing twice changes nothing. An rtt_ms of 2^50 ns
// (13 days) or more is kept as given: float64 cannot round-trip that grid.
func (l CloudLink) Normalize() CloudLink {
	if math.Abs(l.RTTMillis*float64(time.Millisecond)) < 1<<50 {
		l.RTTMillis = float64(l.RTT()) / float64(time.Millisecond)
	}
	return l
}

// Validate reports whether the link parameters are usable.
func (l CloudLink) Validate() error {
	if !(l.BandwidthMbps > 0) || math.IsInf(l.BandwidthMbps, 1) {
		return fmt.Errorf("compute: cloud link %q has bandwidth %v Mb/s, want a finite value > 0", l.Name, l.BandwidthMbps)
	}
	if l.RTTMillis < 0 {
		return fmt.Errorf("compute: cloud link %q has negative RTT", l.Name)
	}
	if !(l.RTTMillis*float64(time.Millisecond) < math.MaxInt64) { // NaN fails too
		return fmt.Errorf("compute: cloud link %q rtt_ms = %g overflows a time.Duration", l.Name, l.RTTMillis)
	}
	if !(l.DropProbability >= 0 && l.DropProbability < 1) {
		return fmt.Errorf("compute: cloud link %q has invalid drop probability %v", l.Name, l.DropProbability)
	}
	return nil
}

// TransferTime returns the time to move payloadBytes across the link in one
// direction, excluding propagation latency.
func (l CloudLink) TransferTime(payloadBytes int) time.Duration {
	if payloadBytes <= 0 || l.BandwidthMbps <= 0 {
		return 0
	}
	bits := float64(payloadBytes) * 8
	seconds := bits / (l.BandwidthMbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// RoundTripTime returns the expected time for a request of requestBytes and a
// response of responseBytes, including one RTT of propagation latency and the
// expected retransmission overhead.
func (l CloudLink) RoundTripTime(requestBytes, responseBytes int) time.Duration {
	rtt := l.RTT()
	base := rtt + l.TransferTime(requestBytes) + l.TransferTime(responseBytes)
	if l.DropProbability > 0 {
		retry := rtt + l.TransferTime(requestBytes)
		base += time.Duration(l.DropProbability * float64(retry))
	}
	return base
}

// Offloader decides where a kernel runs (edge or cloud) and charges the
// appropriate virtual time: remote compute time plus the link's round trip.
type Offloader struct {
	Edge   *CostModel
	Remote *CostModel
	Link   CloudLink
	// OffloadedKernels is the set of kernel names executed remotely. The
	// paper's case study offloads the planning stage of 3D Mapping.
	OffloadedKernels map[string]bool
}

// NewOffloader builds an offloader between the given edge and remote cost
// models. Passing a nil remote model disables offloading entirely.
func NewOffloader(edge *CostModel, remote *CostModel, link CloudLink, kernels ...string) *Offloader {
	o := &Offloader{Edge: edge, Remote: remote, Link: link, OffloadedKernels: map[string]bool{}}
	for _, k := range kernels {
		o.OffloadedKernels[k] = true
	}
	return o
}

// Offloaded reports whether the named kernel runs remotely.
func (o *Offloader) Offloaded(kernel string) bool {
	return o != nil && o.Remote != nil && o.OffloadedKernels[kernel]
}

// Time returns the end-to-end virtual time to execute the named kernel whose
// local (edge) cost would be edgeCost, given the request/response payload
// sizes for the remote case. The remote execution cost is derived from the
// edge cost by the ratio of the two platforms' speeds for the kernel's serial
// fraction, so callers can pass input-size-adjusted costs.
func (o *Offloader) Time(kernel string, edgeCost time.Duration, requestBytes, responseBytes int) time.Duration {
	if !o.Offloaded(kernel) {
		return edgeCost
	}
	k, err := LookupKernel(kernel)
	if err != nil {
		return edgeCost
	}
	speedup := o.Remote.Platform.Speedup(k.SerialFraction, o.Edge.Platform)
	if speedup <= 0 {
		speedup = 1
	}
	remoteCost := time.Duration(float64(edgeCost) / speedup)
	return remoteCost + o.Link.RoundTripTime(requestBytes, responseBytes)
}

// Speedup returns the effective end-to-end speedup of offloading the named
// kernel with the given payload sizes, relative to running it on the edge.
func (o *Offloader) Speedup(kernel string, edgeCost time.Duration, requestBytes, responseBytes int) float64 {
	total := o.Time(kernel, edgeCost, requestBytes, responseBytes)
	if total <= 0 {
		return 1
	}
	return float64(edgeCost) / float64(total)
}
