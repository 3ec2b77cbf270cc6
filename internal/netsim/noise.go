package netsim

import (
	"math"
	"time"

	"remotepeering/internal/stats"
)

// NoiseModel produces the non-propagation component of packet delay on a
// fabric or link: switch/serialisation jitter, diurnal congestion, and —
// for attachments configured as congested — persistent heavy queueing.
// Section 3.1 of the paper motivates both the repeated probing at different
// times of day ("sensitivity to traffic conditions") and the
// RTT-consistent filter; this model is what those defences push against.
type NoiseModel struct {
	// BaseJitter is the median of the ever-present lognormal jitter.
	BaseJitter time.Duration
	// JitterSigma is the σ of the lognormal (in log space). 0 means 0.6.
	JitterSigma float64
	// DiurnalAmplitude is the maximum extra delay added at the daily busy
	// hour. The busy-hour excess follows a clipped sinusoid with a period
	// of 24 hours plus a weekly modulation (weekends are quieter).
	DiurnalAmplitude time.Duration
	// BusyHourUTC is the hour of day (0-23) at which congestion peaks.
	BusyHourUTC int
	// SpikeProb is the per-sample probability of a transient congestion
	// spike (an independent exponential excess with mean SpikeMean).
	SpikeProb float64
	// SpikeMean is the mean of the transient spike excess.
	SpikeMean time.Duration

	// BusyProb, BusyBase and BusyMean model a persistently congested
	// port: with probability BusyProb a sample pays BusyBase plus an
	// exponential excess of mean BusyMean, and only the rare remaining
	// samples see the idle floor. A port like this makes the minimum RTT
	// an outlier relative to the bulk — exactly the pathology the paper's
	// RTT-consistent filter discards.
	BusyProb float64
	BusyBase time.Duration
	BusyMean time.Duration

	src *stats.Source
}

// NewNoiseModel returns a model with the given RNG stream. A nil src makes
// the model deterministic (no jitter at all), which is convenient in tests.
func NewNoiseModel(src *stats.Source, base, diurnal time.Duration) *NoiseModel {
	return &NoiseModel{
		BaseJitter:       base,
		JitterSigma:      0.6,
		DiurnalAmplitude: diurnal,
		BusyHourUTC:      20,
		SpikeProb:        0.02,
		SpikeMean:        2 * time.Millisecond,
		src:              src,
	}
}

// Sample returns the extra delay for a packet at simulation time now.
func (n *NoiseModel) Sample(now time.Duration) time.Duration {
	if n == nil {
		return 0
	}
	var d time.Duration

	// Ever-present lognormal jitter around BaseJitter.
	if n.BaseJitter > 0 && n.src != nil {
		sigma := n.JitterSigma
		if sigma == 0 {
			sigma = 0.6
		}
		mu := math.Log(float64(n.BaseJitter))
		d += time.Duration(n.src.LogNormal(mu, sigma))
	} else {
		d += n.BaseJitter
	}

	// Diurnal congestion: clipped sinusoid peaking at BusyHourUTC,
	// weekday-weighted.
	if n.DiurnalAmplitude > 0 {
		d += diurnalExcess(now, n.BusyHourUTC, n.DiurnalAmplitude)
	}

	// Transient spikes.
	if n.src != nil && n.SpikeProb > 0 && n.src.Float64() < n.SpikeProb {
		d += time.Duration(n.src.ExpFloat64() * float64(n.SpikeMean))
	}

	// Persistent congestion.
	if n.src != nil && n.BusyProb > 0 && n.src.Float64() < n.BusyProb {
		d += n.BusyBase + time.Duration(n.src.ExpFloat64()*float64(n.BusyMean))
	}
	return d
}

// diurnalExcess computes the deterministic time-of-day congestion excess.
// The simulation epoch is treated as midnight UTC on a Monday.
func diurnalExcess(now time.Duration, busyHour int, amplitude time.Duration) time.Duration {
	const day = 24 * time.Hour
	const week = 7 * day
	hourOfDay := float64(now%day) / float64(time.Hour)
	dayOfWeek := int(now % week / day) // 0 = Monday

	phase := 2 * math.Pi * (hourOfDay - float64(busyHour)) / 24
	level := math.Cos(phase) // 1 at the busy hour, -1 twelve hours away
	if level < 0 {
		level = 0
	}
	weekendFactor := 1.0
	if dayOfWeek >= 5 {
		weekendFactor = 0.45 // weekends are quieter
	}
	return time.Duration(level * level * weekendFactor * float64(amplitude))
}
