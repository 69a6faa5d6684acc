package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// SetHelp registers exposition help text for a metric name, for series that
// are emitted by collectors rather than registered directly.
func (r *Registry) SetHelp(name, help string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
	}
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// renderLabels renders {k="v",...} (sorted), or "" for no labels.
func renderLabels(labels []Label, extra ...Label) string {
	all := append(append([]Label(nil), labels...), extra...)
	if len(all) == 0 {
		return ""
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Key < all[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range all {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per metric name, counters and
// gauges as plain samples, histograms as cumulative _bucket series plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var lastName string
	writeHeader := func(name string, kind MetricKind) error {
		if name == lastName {
			return nil
		}
		lastName = name
		if help := r.Help(name); help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, kind)
		return err
	}
	for _, s := range snap.Samples {
		kind := s.Kind
		if kind == 0 {
			kind = KindGauge
		}
		if err := writeHeader(s.Name, kind); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", s.Name, renderLabels(s.Labels), formatValue(s.Value)); err != nil {
			return err
		}
	}
	for _, h := range snap.Histograms {
		if err := writeHeader(h.Name, KindHistogram); err != nil {
			return err
		}
		cum := int64(0)
		for i, c := range h.Snap.Buckets {
			cum += c
			le := "+Inf"
			if i < len(h.Snap.Bounds) {
				le = strconv.FormatFloat(h.Snap.Bounds[i], 'g', -1, 64)
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", h.Name, renderLabels(h.Labels, L("le", le)), cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.Name, renderLabels(h.Labels), strconv.FormatFloat(h.Snap.Sum, 'g', -1, 64)); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_count%s %d\n", h.Name, renderLabels(h.Labels), h.Snap.Count); err != nil {
			return err
		}
	}
	return nil
}

// jsonHistogram is the /statusz rendering of a histogram: totals plus the
// p50/p95/p99 estimates.
type jsonHistogram struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// WriteJSON renders the registry as one JSON object:
//
//	{"metrics": {"name{labels}": value, ...},
//	 "histograms": {"name{labels}": {count, sum, p50, p95, p99}, ...}}
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	metrics := make(map[string]float64, len(snap.Samples))
	for _, s := range snap.Samples {
		metrics[seriesKey(s.Name, s.Labels)] = s.Value
	}
	hists := make(map[string]jsonHistogram, len(snap.Histograms))
	for _, h := range snap.Histograms {
		hists[seriesKey(h.Name, h.Labels)] = jsonHistogram{
			Count: h.Snap.Count,
			Sum:   h.Snap.Sum,
			P50:   h.Snap.Quantile(0.50),
			P95:   h.Snap.Quantile(0.95),
			P99:   h.Snap.Quantile(0.99),
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"metrics":    metrics,
		"histograms": hists,
	})
}
