// Package threat encodes the §3 threat taxonomy — the end-to-end list of
// ways long-term data dies — and maps each threat onto the model's
// vocabulary: which fault class it produces, how widely it correlates
// across replicas, and which §6 strategy addresses it. It is the bridge
// between the paper's qualitative survey and the quantitative machinery.
package threat

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/faults"
	"repro/internal/replica"
)

// Threat is one §3 threat category.
type Threat int

// The §3 threat catalogue, in the paper's order.
const (
	LargeScaleDisaster Threat = iota
	HumanError
	ComponentFault
	MediaFault
	MediaObsolescence
	SoftwareObsolescence
	LossOfContext
	Attack
	OrganizationalFault
	EconomicFault
	numThreats
)

// All lists every threat in the paper's order.
func All() []Threat {
	out := make([]Threat, numThreats)
	for i := range out {
		out[i] = Threat(i)
	}
	return out
}

// Info describes a threat's behaviour in model terms.
type Info struct {
	// Name is the §3 heading.
	Name string
	// Example is the paper's illustrative incident.
	Example string
	// FaultClass is the class of fault the threat typically inflicts.
	FaultClass faults.Type
	// CorrelatesOver lists the independence dimensions along which a
	// single occurrence propagates to multiple replicas. Empty means
	// the threat hits replicas independently.
	CorrelatesOver []replica.Dimension
	// Mitigation is the §6 strategy that addresses it.
	Mitigation string
}

var infos = [numThreats]Info{
	LargeScaleDisaster: {
		Name:           "large-scale disaster",
		Example:        "floods, fires, earthquakes, acts of war; the 9/11 data center whose river-crossing failover was still too close",
		FaultClass:     faults.Visible,
		CorrelatesOver: []replica.Dimension{replica.Geography},
		Mitigation:     "geographic independence of replicas (§6.5)",
	},
	HumanError: {
		Name:           "human error",
		Example:        "operators deleting content still needed; tapes lost in transit; the air-conditioning turned off in the server room",
		FaultClass:     faults.Latent,
		CorrelatesOver: []replica.Dimension{replica.Administration},
		Mitigation:     "no single administrator can affect more than one replica (§6.5)",
	},
	ComponentFault: {
		Name:           "component fault",
		Example:        "controller cards fried by power surges; firmware bugs; license servers and DNS registrations that quietly lapse",
		FaultClass:     faults.Visible,
		CorrelatesOver: []replica.Dimension{replica.HardwareBatch},
		Mitigation:     "hardware diversity and avoiding shared third-party dependencies (§6.5)",
	},
	MediaFault: {
		Name:           "media fault",
		Example:        "bit rot; misplaced sector writes from vibration; CD-ROMs sold as good for decades failing in two to five years",
		FaultClass:     faults.Latent,
		CorrelatesOver: nil,
		Mitigation:     "frequent audit (reduce MDL) and automatic repair (reduce MRL) (§6.2, §6.3)",
	},
	MediaObsolescence: {
		Name:           "media/hardware obsolescence",
		Example:        "9-track tape and 12-inch laser discs readable in principle, if only a reader could be found",
		FaultClass:     faults.Latent,
		CorrelatesOver: []replica.Dimension{replica.HardwareBatch},
		Mitigation:     "proactive migration to new media before readers vanish (§6)",
	},
	SoftwareObsolescence: {
		Name:           "software/format obsolescence",
		Example:        "proprietary camera RAW formats orphaned when the vendor dies",
		FaultClass:     faults.Latent,
		CorrelatesOver: []replica.Dimension{replica.Software},
		Mitigation:     "format migration cycling, like scrubbing at lower frequency (§6)",
	},
	LossOfContext: {
		Name:           "loss of context",
		Example:        "encryption keys lost while the ciphertext survives; metadata that nobody thought to collect",
		FaultClass:     faults.Latent,
		CorrelatesOver: []replica.Dimension{replica.Organization},
		Mitigation:     "preserve context with the data; audit interpretability, not just bits (§4.1)",
	},
	Attack: {
		Name:           "attack",
		Example:        "censorship and sanitization of government websites; insider abuse; flash worms hitting every networked replica at once",
		FaultClass:     faults.Latent,
		CorrelatesOver: []replica.Dimension{replica.Software, replica.Administration},
		Mitigation:     "platform diversity, audit against reference copies (§6.5, §6.2)",
	},
	OrganizationalFault: {
		Name:           "organizational fault",
		Example:        "the research lab whose projects went to undocumented tapes; Ofoto deleting a customer's photos after a lapsed purchase",
		FaultClass:     faults.Latent,
		CorrelatesOver: []replica.Dimension{replica.Organization},
		Mitigation:     "organizational independence and data exit strategies (§6.5)",
	},
	EconomicFault: {
		Name:           "economic fault",
		Example:        "budgets that vary down to zero; libraries subscribing to fewer serials",
		FaultClass:     faults.Visible,
		CorrelatesOver: []replica.Dimension{replica.Organization},
		Mitigation:     "minimize cost per reliable byte: cheap replicas, automation (§4.3, §6)",
	},
}

// Info returns the threat's description. It panics on an out-of-range
// value; threats are compile-time constants.
func (t Threat) Info() Info {
	if t < 0 || t >= numThreats {
		panic(fmt.Sprintf("threat: unknown threat %d", int(t)))
	}
	return infos[t]
}

// String returns the threat's §3 heading.
func (t Threat) String() string { return t.Info().Name }

// IsLatent reports whether the threat's typical fault evades immediate
// detection — the paper's point that most of the §3 catalogue is latent
// (§4.1 lists human error, component failure, obsolescence, context loss,
// and attack alongside media faults).
func (t Threat) IsLatent() bool { return t.Info().FaultClass == faults.Latent }

// CorrelatedThreats returns the threats that a topology sharing the given
// dimension leaves correlated across replicas.
func CorrelatedThreats(d replica.Dimension) []Threat {
	var out []Threat
	for _, t := range All() {
		for _, dim := range t.Info().CorrelatesOver {
			if dim == d {
				out = append(out, t)
				break
			}
		}
	}
	return out
}

// ScenarioShocks builds common-cause shocks for the selected threats over
// a topology: each threat contributes shocks along its correlation
// dimensions, with the given mean time between occurrences per shared
// component. Threats with no correlation dimension are per-replica
// hazards and belong in the fault-process means instead. Threats sharing
// a dimension fold in ascending Threat order (the §3 catalogue order),
// never map order: the floating-point fold is not associative, and the
// same input must compile to the same bits.
func ScenarioShocks(top replica.Topology, threatMeans map[Threat]float64) ([]faults.Shock, error) {
	rates := replica.ShockRates{}
	for _, t := range slices.Sorted(maps.Keys(threatMeans)) {
		mean := threatMeans[t]
		info := t.Info()
		for _, d := range info.CorrelatesOver {
			spec, exists := rates[d]
			if !exists {
				rates[d] = replica.ShockSpec{Mean: mean, Kind: info.FaultClass, HitProb: 1}
				continue
			}
			// Two threats on one dimension: combine rates (competing
			// exponentials); keep the more dangerous latent class.
			combined := 1 / (1/spec.Mean + 1/mean)
			if info.FaultClass == faults.Latent {
				spec.Kind = faults.Latent
			}
			spec.Mean = combined
			rates[d] = spec
		}
	}
	return top.CompileShocks(rates)
}
