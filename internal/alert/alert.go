// Package alert implements Sheriff's pre-alert scheme (Sec. III.B, IV.C):
// each VM's workload profile W = [CPU, MEM, IO, TRF] (every component
// normalized to [0,1]) is checked against a THRESHOLD, and
//
//	ALERT = max(W)  if ∃ x ∈ W with x > THRESHOLD,
//	        0       otherwise.
//
// Alerts come in the three kinds of Sec. III.B — from a server, from the
// local ToR (predicted uplink congestion), or from an outer switch
// (congestion feedback) — and are collected by the delegation node every
// T seconds for the management phase.
package alert

import (
	"fmt"

	"sheriff/internal/traces"
)

// Kind classifies the origin of an alert (Sec. III.B).
type Kind int

const (
	// FromServer: a host predicts it cannot afford its VMs' workload.
	FromServer Kind = iota
	// FromLocalToR: the shim predicts uplink congestion at its own ToR.
	FromLocalToR
	// FromOuterSwitch: congestion feedback from an aggregation/core or
	// remote ToR switch.
	FromOuterSwitch
)

// String names the alert kind.
func (k Kind) String() string {
	switch k {
	case FromServer:
		return "server"
	case FromLocalToR:
		return "local-tor"
	case FromOuterSwitch:
		return "outer-switch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Alert is one ALERT message delivered to a delegation node.
type Alert struct {
	Kind      Kind
	Value     float64 // the ALERT value (max of the offending profile)
	VMID      int     // offending VM (FromServer)
	HostID    int     // offending host (FromServer)
	RackIndex int     // rack of origin
	SwitchID  int     // offending switch node (FromOuterSwitch / FromLocalToR)
}

// Severity is the tiered urgency of an alert, derived from the ALERT
// value: watch (reported activity, monitor), urgent (developing
// situation), critical (immediate danger). Tiers give preemption a
// principled priority signal — a migration may evict a resident VM only
// when the incoming VM's tier strictly dominates the victim's.
type Severity int

const (
	// SeverityNone: the VM raised no alert (ALERT = 0).
	SeverityNone Severity = iota
	// SeverityWatch: an alert fired but stays below the urgent cut.
	SeverityWatch
	// SeverityUrgent: the predicted overload is developing (ALERT ≥ 0.8).
	SeverityUrgent
	// SeverityCritical: overload is imminent (ALERT ≥ 0.95).
	SeverityCritical
)

// Severity classification cuts. ALERT values are profile maxima in
// [0, 1], so the cuts sit inside the fired range (fired alerts carry the
// offending component's value, > the 0.9 default threshold in the common
// configuration, but lower thresholds can fire watch-tier alerts).
const (
	UrgentAt   = 0.8
	CriticalAt = 0.95
)

// String names the severity tier.
func (s Severity) String() string {
	switch s {
	case SeverityNone:
		return "none"
	case SeverityWatch:
		return "watch"
	case SeverityUrgent:
		return "urgent"
	case SeverityCritical:
		return "critical"
	default:
		return fmt.Sprintf("Severity(%d)", int(s))
	}
}

// ClassifySeverity maps an ALERT value onto its tier: none for
// non-positive values, then watch / urgent / critical at the fixed cuts.
func ClassifySeverity(v float64) Severity {
	switch {
	case v <= 0:
		return SeverityNone
	case v >= CriticalAt:
		return SeverityCritical
	case v >= UrgentAt:
		return SeverityUrgent
	default:
		return SeverityWatch
	}
}

// Thresholds holds per-component trigger levels. The paper's motivating
// example is 90% CPU/memory utilization.
type Thresholds struct {
	CPU float64
	Mem float64
	IO  float64
	TRF float64
}

// DefaultThresholds returns 0.9 for every component.
func DefaultThresholds() Thresholds {
	return Thresholds{CPU: 0.9, Mem: 0.9, IO: 0.9, TRF: 0.9}
}

// Evaluate applies the ALERT rule to a (predicted) workload profile:
// the returned value is max(W) when any component exceeds its threshold,
// else 0; fired reports whether the alert triggered.
func Evaluate(p traces.Profile, th Thresholds) (value float64, fired bool) {
	if p.CPU > th.CPU || p.Mem > th.Mem || p.IO > th.IO || p.TRF > th.TRF {
		return p.Max(), true
	}
	return 0, false
}
