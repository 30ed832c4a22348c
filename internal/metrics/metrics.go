// Package metrics renders metric samples in the Prometheus text exposition
// format, with no dependency beyond the standard library. The collectors
// live with the things they observe (the store, the cluster, the baseline
// server); this package only knows how to write what they hand it.
//
// Nothing registers globally: a handler renders from a snapshot taken per
// request, so any number of stores can live in one process.
package metrics

import (
	"io"
	"net/http"
	"strconv"
	"strings"
)

// Sample is one metric point: a name, optional labels, and a value.
type Sample struct {
	Name   string
	Labels [][2]string // ordered key/value pairs
	Value  float64
}

// L is shorthand for building a label list.
func L(kv ...string) [][2]string {
	if len(kv)%2 != 0 {
		panic("metrics: odd label list")
	}
	out := make([][2]string, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		out = append(out, [2]string{kv[i], kv[i+1]})
	}
	return out
}

// escapeLabel escapes a label value per the text exposition format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	return v
}

// WriteProm renders samples in Prometheus text format, in input order.
func WriteProm(w io.Writer, samples []Sample) {
	var b strings.Builder
	for _, s := range samples {
		b.WriteString(s.Name)
		if len(s.Labels) > 0 {
			b.WriteByte('{')
			for i, kv := range s.Labels {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(kv[0])
				b.WriteString(`="`)
				b.WriteString(escapeLabel(kv[1]))
				b.WriteByte('"')
			}
			b.WriteByte('}')
		}
		b.WriteByte(' ')
		b.WriteString(strconv.FormatFloat(s.Value, 'g', -1, 64))
		b.WriteByte('\n')
	}
	io.WriteString(w, b.String())
}

// Handler builds an http.Handler serving /metrics (Prometheus text) from
// collect, which it calls once per scrape.
func Handler(collect func() []Sample) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteProm(w, collect())
	})
	return mux
}
