package quant

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// TensorInfo names one gradient tensor of a model together with its CNTK
// layout shape. The workload package produces inventories of these for
// every network in the study.
type TensorInfo struct {
	Name  string
	Shape Shape
}

// DefaultMinFrac is the paper's small-matrix exemption target (§3.2.2):
// the exemption threshold is chosen so that at least this fraction of
// all parameters stays quantised (the paper uses >99 %).
const DefaultMinFrac = 0.99

// Rule maps a tensor-name pattern to a codec override. Patterns are
// simple globs over the full tensor name: '*' matches any run of
// characters (dots included), '?' matches exactly one. A pattern
// without wildcards additionally matches a whole layer prefix, so
// "embedding" covers "embedding.W" and "embedding.b" — the spelling a
// per-layer precision schedule naturally uses.
type Rule struct {
	Pattern string
	Codec   Codec
}

// Policy is a complete precision assignment scheme for a model: a base
// codec, the small-matrix exemption target, and ordered name-pattern
// rules overriding the codec for matching tensors. It generalises the
// paper's single (codec, minfrac) pair to the per-layer assignments
// that Auto-Precision-Scaling-style schedules need, and it is the unit
// of configuration everywhere codecs used to be: parallel.Config,
// the lpsgd facade, cluster negotiation and the performance simulator.
//
// Policies have their own string grammar, parsed by ParsePolicy and
// reproduced canonically by Name():
//
//	<base codec>[;minfrac=<f>][;<pattern>=<codec>]...
//
// For example "qsgd4b512;minfrac=0.99;embedding=topk0.001;*.b=32bit"
// sends everything as 4-bit QSGD, except embedding tensors as 0.1 %
// top-k and every bias at full precision; of what the rules leave to
// the base codec, at least 99 % of parameters stay quantised. A bare
// codec name is a valid policy (default minfrac, no rules), which keeps
// every pre-policy configuration string working.
type Policy struct {
	// Base carries every tensor no rule claims (subject to the minfrac
	// exemption). A nil Base evaluates as full precision.
	Base Codec
	// MinFrac is the small-matrix exemption target in (0, 1]; values
	// ≤ 0 evaluate as DefaultMinFrac.
	MinFrac float64
	// Rules are evaluated in order; the first matching pattern wins.
	Rules []Rule
}

// NewPolicy wraps a single codec into the policy it is shorthand for:
// the codec as base, DefaultMinFrac, no rules.
func NewPolicy(base Codec) *Policy {
	return &Policy{Base: base, MinFrac: DefaultMinFrac}
}

// ParsePolicy resolves a policy string into a Policy. The grammar is
// semicolon-separated: the first segment is a base codec name (Parse
// grammar), every further segment is either "minfrac=<f>" with f in
// (0, 1] or a "<pattern>=<codec>" rule. Duplicate minfrac segments and
// duplicate patterns are rejected — the canonical spelling must be
// unambiguous. ParsePolicy(p.Name()) round-trips for every valid
// policy, which is what lets capability exchanges and configuration
// files carry policies as strings.
func ParsePolicy(name string) (*Policy, error) {
	segs := strings.Split(strings.TrimSpace(name), ";")
	baseSeg := strings.TrimSpace(segs[0])
	if strings.Contains(baseSeg, "=") {
		return nil, fmt.Errorf("quant: policy %q must start with a base codec name, not a rule", name)
	}
	base, err := Parse(baseSeg)
	if err != nil {
		return nil, fmt.Errorf("quant: policy base: %w", err)
	}
	p := &Policy{Base: base, MinFrac: DefaultMinFrac}
	seenMinFrac := false
	seenPattern := make(map[string]bool)
	for _, seg := range segs[1:] {
		seg = strings.TrimSpace(seg)
		if seg == "" {
			return nil, fmt.Errorf("quant: policy %q has an empty segment", name)
		}
		key, val, ok := strings.Cut(seg, "=")
		if !ok {
			return nil, fmt.Errorf("quant: policy segment %q is neither minfrac=<f> nor <pattern>=<codec>", seg)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if key == "minfrac" {
			if seenMinFrac {
				return nil, fmt.Errorf("quant: policy %q sets minfrac twice", name)
			}
			f, err := strconv.ParseFloat(val, 64)
			// The negated comparison also rejects NaN.
			if err != nil || !(f > 0 && f <= 1) {
				return nil, fmt.Errorf("quant: bad minfrac %q (want a number in (0,1])", val)
			}
			p.MinFrac = f
			seenMinFrac = true
			continue
		}
		if key == "" {
			return nil, fmt.Errorf("quant: policy rule %q has an empty pattern", seg)
		}
		if seenPattern[key] {
			return nil, fmt.Errorf("quant: policy %q repeats pattern %q", name, key)
		}
		codec, err := Parse(val)
		if err != nil {
			return nil, fmt.Errorf("quant: policy rule %q: %w", key, err)
		}
		p.Rules = append(p.Rules, Rule{Pattern: key, Codec: codec})
		seenPattern[key] = true
	}
	return p, nil
}

// MustParsePolicy is ParsePolicy for static configuration; it panics on
// error.
func MustParsePolicy(name string) *Policy {
	p, err := ParsePolicy(name)
	if err != nil {
		panic(err)
	}
	return p
}

// CanonicalPolicy resolves a policy string to its canonical spelling —
// the one Policy.Name() produces — so aliases compare as equals:
// "qsgd4;minfrac=0.99" canonicalises to "qsgd4b512", and rule codecs
// canonicalise the same way ("fc=fp32" to "fc=32bit"). Capability
// exchanges (cluster policy negotiation) intersect advertised sets by
// canonical spelling, not raw spelling.
func CanonicalPolicy(name string) (string, error) {
	p, err := ParsePolicy(name)
	if err != nil {
		return "", err
	}
	return p.Name(), nil
}

// Name returns the canonical policy string: the base codec's canonical
// name, a minfrac segment only when it differs from DefaultMinFrac, and
// the rules in order with canonical codec spellings. A default policy
// over a single codec therefore names exactly as the codec does, and
// ParsePolicy(p.Name()) round-trips.
func (p *Policy) Name() string {
	var b strings.Builder
	b.WriteString(p.base().Name())
	if mf := p.minFrac(); mf != DefaultMinFrac {
		b.WriteString(";minfrac=")
		b.WriteString(strconv.FormatFloat(mf, 'g', -1, 64))
	}
	for _, r := range p.Rules {
		b.WriteByte(';')
		b.WriteString(r.Pattern)
		b.WriteByte('=')
		b.WriteString(r.Codec.Name())
	}
	return b.String()
}

// Validate reports whether a hand-constructed policy round-trips
// through its own canonical name — the invariant every policy that
// reaches the wire (cluster hellos, frame headers) must satisfy. A
// policy built by ParsePolicy always validates.
func (p *Policy) Validate() error {
	if p == nil {
		return fmt.Errorf("quant: nil policy")
	}
	for _, r := range p.Rules {
		if r.Codec == nil {
			return fmt.Errorf("quant: policy rule %q has a nil codec", r.Pattern)
		}
	}
	name := p.Name()
	rt, err := ParsePolicy(name)
	if err != nil {
		return fmt.Errorf("quant: policy does not round-trip its name %q: %w", name, err)
	}
	if rt.Name() != name {
		return fmt.Errorf("quant: policy name %q re-parses as %q", name, rt.Name())
	}
	return nil
}

// base returns the effective base codec (nil evaluates as FP32).
func (p *Policy) base() Codec {
	if p.Base == nil {
		return FP32{}
	}
	return p.Base
}

// minFrac returns the effective exemption target (≤0 evaluates as
// DefaultMinFrac).
func (p *Policy) minFrac() float64 {
	if p.MinFrac <= 0 {
		return DefaultMinFrac
	}
	return p.MinFrac
}

// ruleFor returns the codec of the first rule matching name, if any.
func (p *Policy) ruleFor(name string) (Codec, bool) {
	for _, r := range p.Rules {
		if MatchPattern(r.Pattern, name) {
			return r.Codec, true
		}
	}
	return nil, false
}

// MatchPattern reports whether a policy rule pattern matches a tensor
// name: '*' matches any (possibly empty) run of characters, '?' exactly
// one; the whole name must match. A pattern without wildcards also
// matches a whole dot-separated layer prefix, so "embedding" covers
// "embedding.W".
func MatchPattern(pattern, name string) bool {
	if globMatch(pattern, name) {
		return true
	}
	if !strings.ContainsAny(pattern, "*?") {
		return strings.HasPrefix(name, pattern+".")
	}
	return false
}

// globMatch is iterative glob matching with '*' backtracking.
func globMatch(p, s string) bool {
	pi, si := 0, 0
	star, backtrack := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '?' || p[pi] == s[si]):
			pi++
			si++
		case pi < len(p) && p[pi] == '*':
			star, backtrack = pi, si
			pi++
		case star >= 0:
			backtrack++
			pi, si = star+1, backtrack
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '*' {
		pi++
	}
	return pi == len(p)
}

// Plan is a Policy evaluated against a concrete tensor inventory: the
// single source of truth for which codec carries each tensor, what the
// exchange costs on the wire, and what the quantisation kernels cost.
// Evaluation order is the policy's: pattern rules claim their tensors
// first, then the small-matrix exemption threshold (§3.2.2) runs over
// what remains — the largest element-count threshold that still keeps
// at least MinFrac of the remaining parameters on the base codec;
// tensors below it fall back to full precision, because for them
// quantisation costs kernel time without saving meaningful bandwidth.
type Plan struct {
	// Policy is the scheme this plan evaluates.
	Policy *Policy
	// Fallback is used below the threshold (always full precision).
	Fallback Codec
	// Threshold is the minimum element count for base-codec
	// quantisation among the tensors no rule claimed.
	Threshold int
	// MinFraction is the requested quantised-parameter fraction.
	MinFraction float64

	tensors []TensorInfo
	codecs  []Codec
	// exempt marks tensors carried at full precision by the
	// small-matrix exemption (not by an explicit rule).
	exempt []bool
}

// NewPlan evaluates policy against the given tensor inventory. A nil
// policy evaluates as full precision.
func NewPlan(policy *Policy, tensors []TensorInfo) *Plan {
	if policy == nil {
		policy = NewPolicy(FP32{})
	}
	base := policy.base()
	minFrac := policy.minFrac()
	p := &Plan{
		Policy:      policy,
		Fallback:    FP32{},
		MinFraction: minFrac,
		tensors:     tensors,
		codecs:      make([]Codec, len(tensors)),
		exempt:      make([]bool, len(tensors)),
	}
	// Pattern rules claim their tensors first.
	ruled := make([]bool, len(tensors))
	for i, t := range tensors {
		if c, ok := policy.ruleFor(t.Name); ok {
			p.codecs[i] = c
			ruled[i] = true
		}
	}
	if _, isFP := base.(FP32); isFP {
		for i := range p.codecs {
			if !ruled[i] {
				p.codecs[i] = base
			}
		}
		return p
	}
	// The exemption threshold runs over what the rules left: pick the
	// largest distinct remaining size whose cumulative base-codec mass
	// still meets minFrac of the remaining parameters; with minFrac ≥ 1
	// every remaining tensor is quantised.
	var total int64
	var sizes []int
	for i, t := range tensors {
		if ruled[i] {
			continue
		}
		n := t.Shape.Len()
		sizes = append(sizes, n)
		total += int64(n)
	}
	uniq := append([]int(nil), sizes...)
	sort.Ints(uniq)
	threshold := 0
	for i := len(uniq) - 1; i >= 0; i-- {
		cand := uniq[i]
		var quantised int64
		for _, s := range sizes {
			if s >= cand {
				quantised += int64(s)
			}
		}
		if total == 0 || float64(quantised) >= minFrac*float64(total) {
			threshold = cand
			break
		}
	}
	p.Threshold = threshold
	for i, t := range tensors {
		if ruled[i] {
			continue
		}
		if t.Shape.Len() >= threshold {
			p.codecs[i] = base
		} else {
			p.codecs[i] = p.Fallback
			p.exempt[i] = true
		}
	}
	return p
}

// CodecFor returns the codec assigned to tensor index i.
func (p *Plan) CodecFor(i int) Codec {
	if i < 0 || i >= len(p.codecs) {
		panic(fmt.Sprintf("quant: plan has no tensor %d", i))
	}
	return p.codecs[i]
}

// NumTensors returns the number of tensors in the plan.
func (p *Plan) NumTensors() int { return len(p.codecs) }

// FullPrecision reports whether every tensor travels as raw float32 —
// the condition under which a transport may skip quantisation entirely
// (e.g. the real full-precision ring instead of the byte-volume
// simulation).
func (p *Plan) FullPrecision() bool {
	for _, c := range p.codecs {
		if _, isFP := c.(FP32); !isFP {
			return false
		}
	}
	return true
}

// QuantisedFraction returns the fraction of parameters carried as the
// policy directs — everything except the tensors the small-matrix
// exemption demoted to full precision. Rule-assigned tensors count as
// policy-directed even when their rule says 32bit.
func (p *Plan) QuantisedFraction() float64 {
	var total, exempted int64
	for i, t := range p.tensors {
		n := int64(t.Shape.Len())
		total += n
		if p.exempt[i] {
			exempted += n
		}
	}
	if total == 0 {
		return 1
	}
	return float64(total-exempted) / float64(total)
}

// WireBytes returns the total encoded bytes for one full gradient
// exchange message set (each tensor encoded once under its assigned
// codec).
func (p *Plan) WireBytes() int64 {
	var total int64
	for i, t := range p.tensors {
		total += int64(p.codecs[i].EncodedBytes(t.Shape.Len(), t.Shape))
	}
	return total
}

// RawBytes returns the total float32 bytes of all tensors.
func (p *Plan) RawBytes() int64 {
	var total int64
	for _, t := range p.tensors {
		total += int64(4 * t.Shape.Len())
	}
	return total
}
