package telemetry

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WritePrometheus renders every family in the Prometheus text format
// (version 0.0.4): families sorted by name, children sorted by label
// values, HELP/TYPE comments, and for histograms the cumulative
// _bucket/_sum/_count series with the implicit le="+Inf" bucket.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	families := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		families = append(families, f)
	}
	r.mu.RUnlock()
	sort.Slice(families, func(i, j int) bool { return families[i].name < families[j].name })

	var b strings.Builder
	for _, f := range families {
		b.Reset()
		if err := f.write(&b); err != nil {
			return err
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry as a GET /metrics endpoint.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// write renders one family.
func (f *family) write(b *strings.Builder) error {
	series := f.series()
	children := make([]*child, 0, len(series))
	for _, c := range series {
		children = append(children, c)
	}
	sort.Slice(children, func(i, j int) bool {
		return strings.Join(children[i].labelValues, "\xff") < strings.Join(children[j].labelValues, "\xff")
	})

	if f.help != "" {
		fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	}
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, c := range children {
		switch f.kind {
		case KindCounter:
			b.WriteString(f.name)
			writeLabels(b, f.labels, c.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(c.load(), 10))
			b.WriteByte('\n')
		case KindGauge:
			b.WriteString(f.name)
			writeLabels(b, f.labels, c.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(math.Float64frombits(c.load())))
			b.WriteByte('\n')
		case KindHistogram:
			var cum uint64
			for i := range c.bucketCounts {
				cum += c.bucketCounts[i].Load()
				le := "+Inf"
				if i < len(f.buckets) {
					le = formatFloat(f.buckets[i])
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(b, f.labels, c.labelValues, "le", le)
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(cum, 10))
				b.WriteByte('\n')
			}
			b.WriteString(f.name)
			b.WriteString("_sum")
			writeLabels(b, f.labels, c.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(formatFloat(math.Float64frombits(c.sumBits.Load())))
			b.WriteByte('\n')
			b.WriteString(f.name)
			b.WriteString("_count")
			writeLabels(b, f.labels, c.labelValues, "", "")
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(c.count.Load(), 10))
			b.WriteByte('\n')
		}
	}
	return nil
}

// writeLabels renders the {k="v",...} block, appending the extra pair
// (the histogram "le") when extraKey is non-empty. No braces are
// emitted for an unlabeled series.
func writeLabels(b *strings.Builder, names, values []string, extraKey, extraVal string) {
	if len(names) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(extraVal))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatFloat renders a value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string { return labelEscaper.Replace(s) }

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// escapeHelp escapes a HELP string per the exposition format.
func escapeHelp(s string) string { return helpEscaper.Replace(s) }
