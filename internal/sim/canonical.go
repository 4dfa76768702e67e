package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"repro/internal/faults"
)

// Canonical serializes a validated configuration and its result-shaping
// options into a deterministic, self-describing string: the cache key
// substrate for services that memoize estimates.
//
// Two requests that produce byte-identical estimates must canonicalize
// identically, so the encoding works from the *resolved* per-replica
// expansion (Config.ReplicaSpecs), not the raw struct: a scalar-shorthand
// Config and the equivalent explicit Specs fleet serialize to the same
// string, as do MinIntact 0 and its default 1. Options are normalized the
// same way — Parallel is omitted entirely (the estimator is deterministic
// regardless of worker count, a property spec_test.go pins down) and
// Level 0 folds to its 0.95 default.
//
// Interface-typed fields (scrub strategies, repair samplers, correlation
// models) are encoded by concrete type name plus field values via
// reflection, so any two distinct parameterizations differ and equal ones
// collide, without each implementation opting in. Function-valued state
// cannot be canonicalized and returns an error.
//
// A configuration and options that EstimateStream would reject get no
// key: both check them through admit, so the error is the same text.
func Canonical(cfg Config, opt Options) (string, error) {
	var stack [canonStackBytes]byte
	b, err := appendCanonical(stack[:0], &cfg, opt)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Fingerprint returns the hex SHA-256 of Canonical(cfg, opt): the
// content-addressed cache key for an estimation request. It hashes the
// encoder's buffer directly, without materializing the string.
func Fingerprint(cfg Config, opt Options) (string, error) {
	var stack [canonStackBytes]byte
	b, err := appendCanonical(stack[:0], &cfg, opt)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), nil
}

// canonStackBytes sizes the stack buffer Canonical and Fingerprint
// encode into: a uniform profiled fleet of up to about five replicas
// fits, larger keys grow onto the heap.
const canonStackBytes = 2048

// appendCanonical appends the canonical form of (cfg, opt) to b.
func appendCanonical(b []byte, cfg *Config, opt Options) ([]byte, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	opt, err := admit(cfg, opt)
	if err != nil {
		return nil, err
	}
	n := cfg.NumReplicas()
	minIntact := cfg.MinIntact
	if minIntact == 0 {
		minIntact = 1
	}
	b = append(b, "sim.Config/v1{replicas:"...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ",minIntact:"...)
	b = strconv.AppendInt(b, int64(minIntact), 10)
	b = append(b, ",specs:["...)
	if len(cfg.Specs) == 0 {
		// A uniform fleet resolves every replica to the same spec
		// (ReplicaSpecs' contract), so its bytes are encoded once and
		// repeated.
		start := len(b)
		if b, err = appendValue(b, reflect.ValueOf(cfg.resolveSpec(0))); err != nil {
			return nil, fmt.Errorf("sim: canonicalizing replica 0: %w", err)
		}
		end := len(b)
		for i := 1; i < n; i++ {
			b = append(b, ',')
			b = append(b, b[start:end]...)
		}
	} else {
		for i := range cfg.Specs {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(b, reflect.ValueOf(cfg.resolveSpec(i))); err != nil {
				return nil, fmt.Errorf("sim: canonicalizing replica %d: %w", i, err)
			}
		}
	}
	b = append(b, "],correlation:"...)
	if b, err = appendValue(b, reflect.ValueOf(cfg.Correlation)); err != nil {
		return nil, fmt.Errorf("sim: canonicalizing correlation: %w", err)
	}
	b = append(b, ",shocks:["...)
	for i := range cfg.Shocks {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendValue(b, reflect.ValueOf(cfg.Shocks[i])); err != nil {
			return nil, fmt.Errorf("sim: canonicalizing shock %q: %w", cfg.Shocks[i].Name, err)
		}
	}
	b = append(b, "],auditLatent:"...)
	b = appendFloat(b, cfg.AuditLatentFaultProb)
	b = append(b, ",auditVisible:"...)
	b = appendFloat(b, cfg.AuditVisibleFaultProb)

	b = append(b, "}sim.Options/v1{trials:"...)
	b = strconv.AppendInt(b, int64(opt.Trials), 10)
	b = append(b, ",horizon:"...)
	b = appendFloat(b, opt.Horizon)
	b = append(b, ",seed:"...)
	b = strconv.AppendUint(b, opt.Seed, 10)
	b = append(b, ",level:"...)
	b = appendFloat(b, opt.Level)
	if opt.adaptive() {
		// Adaptive runs stop at batch boundaries, so the realized trial
		// count is a deterministic function of (target, maxTrials,
		// batchSize) — these join the key, while fixed-trial runs keep
		// their historical encoding (batch size cannot shape a fixed
		// result, and older fingerprints stay valid).
		b = append(b, ",targetRel:"...)
		b = appendFloat(b, opt.TargetRelWidth)
		b = append(b, ",maxTrials:"...)
		b = strconv.AppendInt(b, int64(opt.MaxTrials), 10)
		b = append(b, ",batch:"...)
		b = strconv.AppendInt(b, int64(opt.BatchSize), 10)
	}
	if opt.Bias != 0 {
		// Biased runs use a different estimator, so they must never
		// collide with unbiased keys — which keep their historical,
		// bias-free encoding. Encoding the *resolved* β makes AutoBias
		// and the explicit factor it resolves to share a fingerprint
		// (the resolution is a pure function of the config).
		b = append(b, ",bias:"...)
		b = appendFloat(b, resolveBias(cfg, opt.Horizon, opt.Bias))
	}
	return append(b, '}'), nil
}

// appendFloat renders a float deterministically and round-trippably
// (strconv spells the specials NaN, +Inf and -Inf).
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// hazardType is the faults.Hazard interface, for the additive-field
// omission rule in appendValue.
var hazardType = reflect.TypeOf((*faults.Hazard)(nil)).Elem()

// drawVersions tags the encoded name of each type whose sampler changed
// its draws after keys naming it were deployed, so those keys change
// with it: a disk store or a worker of the earlier build must never
// answer them with bytes this build would not reproduce. Weibull
// profiles are sampled by inverting Λ since "/inverse"; before, by
// thinning.
var drawVersions = map[reflect.Type]string{
	reflect.TypeOf(faults.WeibullHazard{}): "/inverse",
}

// structCodec is what encoding a struct type needs from reflection,
// computed once per type: the "pkg.Type{" opener and, per field in
// declaration order, its "Name:" label and whether the field is omitted
// while nil.
type structCodec struct {
	open   string
	fields []fieldCodec
}

type fieldCodec struct {
	label   string
	omitNil bool
}

// structCodecs caches a *structCodec per reflect.Type.
var structCodecs sync.Map

// codecOf returns t's codec, building and caching it on first use.
func codecOf(t reflect.Type) *structCodec {
	if c, ok := structCodecs.Load(t); ok {
		return c.(*structCodec)
	}
	c := &structCodec{open: t.String() + drawVersions[t] + "{", fields: make([]fieldCodec, t.NumField())}
	for i := range c.fields {
		f := t.Field(i)
		c.fields[i] = fieldCodec{label: f.Name + ":", omitNil: f.Type == hazardType}
	}
	actual, _ := structCodecs.LoadOrStore(t, c)
	return actual.(*structCodec)
}

// appendValue deep-encodes a value: concrete type names for interface
// and pointer indirections, declaration-ordered struct fields (unexported
// included — derived caches are themselves deterministic functions of the
// exported state), ordered slices, and maps sorted by encoded entry. It
// never calls Interface(), so unexported fields of foreign types are
// readable.
//
// One additive-field rule: struct fields of interface type faults.Hazard
// are omitted entirely while nil. The Hazard field joined ReplicaSpec
// after fingerprints were already deployed as persistent cache keys, and
// a nil profile is dynamically identical to the historical behaviour —
// omitting it keeps every unprofiled config's canonical string (and disk
// store) byte-identical to pre-hazard builds, while any non-nil profile
// encodes its concrete type and parameters and fingerprints distinctly.
func appendValue(b []byte, v reflect.Value) ([]byte, error) {
	if !v.IsValid() {
		return append(b, "nil"...), nil
	}
	var err error
	switch v.Kind() {
	case reflect.Interface, reflect.Pointer:
		if v.IsNil() {
			return append(b, "nil"...), nil
		}
		return appendValue(b, v.Elem())
	case reflect.Struct:
		c := codecOf(v.Type())
		b = append(b, c.open...)
		wrote := false
		for i, f := range c.fields {
			fv := v.Field(i)
			if f.omitNil && fv.IsNil() {
				continue
			}
			if wrote {
				b = append(b, ',')
			}
			wrote = true
			b = append(b, f.label...)
			if b, err = appendValue(b, fv); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			return append(b, "nil"...), nil
		}
		b = append(b, '[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				b = append(b, ',')
			}
			if b, err = appendValue(b, v.Index(i)); err != nil {
				return nil, err
			}
		}
		return append(b, ']'), nil
	case reflect.Map:
		if v.IsNil() {
			return append(b, "nil"...), nil
		}
		// Entries sort by their encoded "k:v" bytes, so iteration
		// order never shows. (Inline rather than a helper: mutual
		// recursion would make b escape and cost the stack buffer.)
		var entries []byte
		spans := make([][2]int, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			start := len(entries)
			if entries, err = appendValue(entries, it.Key()); err != nil {
				return nil, err
			}
			entries = append(entries, ':')
			if entries, err = appendValue(entries, it.Value()); err != nil {
				return nil, err
			}
			spans = append(spans, [2]int{start, len(entries)})
		}
		entry := func(i int) []byte { return entries[spans[i][0]:spans[i][1]] }
		sort.Slice(spans, func(i, j int) bool { return bytes.Compare(entry(i), entry(j)) < 0 })
		b = append(b, "map{"...)
		for i := range spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, entry(i)...)
		}
		return append(b, '}'), nil
	case reflect.Float64, reflect.Float32:
		return appendFloat(b, v.Float()), nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return strconv.AppendInt(b, v.Int(), 10), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return strconv.AppendUint(b, v.Uint(), 10), nil
	case reflect.Bool:
		return strconv.AppendBool(b, v.Bool()), nil
	case reflect.String:
		return strconv.AppendQuote(b, v.String()), nil
	default:
		return nil, fmt.Errorf("cannot canonicalize %s value", v.Kind())
	}
}
