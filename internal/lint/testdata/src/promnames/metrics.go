// Package promnames is the analysistest fixture for the promnames
// analyzer. The file is named metrics.go because the analyzer only
// scans metrics*.go files, mirroring internal/server, and the rows are
// literals of a struct type named family, like the server's table.
package promnames

import (
	"fmt"
	"strings"
)

type family struct {
	name, kind, help string
	labels           []string
	value            func() float64
}

// Named constants resolve like literals.
const (
	counter   = "counter"
	tierLabel = "tier"
)

func dynamicName() string { return "samie_" + strings.ToLower("Dynamic") }

var families = []family{
	// Clean rows, literals and named constants alike.
	{name: "samie_good_total", kind: counter, help: "good counter"},
	{name: "samie_runs_seconds", kind: "histogram", help: "good histogram", labels: []string{"phase"}},
	{name: "samie_store_bytes", kind: "histogram", help: "constant labels", labels: []string{tierLabel, "code"}},
	{name: "samie_queue_depth", kind: "gauge", help: "good gauge"},

	{name: "samie_Bad_name", kind: "gauge", help: "bad casing"},              // want `metric samie_Bad_name does not match \^samie_\[a-z0-9_\]\+\$`
	{name: "samie_bad_count", kind: "counter", help: "bad suffix"},           // want `counter samie_bad_count must end in _total`
	{name: "samie_pending_total", kind: "gauge", help: "gauge with _total"},  // want `gauge samie_pending_total must not end in _total`
	{name: "samie_run_latency", kind: "histogram", help: "unitless"},         // want `histogram samie_run_latency must end in _seconds or _bytes`
	{name: "samie_quantiles", kind: "summary", help: "unsupported kind"},     // want `metric samie_quantiles has unknown type "summary"`
	{name: "samie_good_total", kind: "gauge", help: "redeclared as a gauge"}, // want `metric samie_good_total declared as gauge here but counter elsewhere`
	{name: "samie_weird_total", kind: "counter", help: "stray label",
		labels: []string{"phase", "weird"}}, // want `label "weird" is not in the allowed set`
	{name: dynamicName(), kind: "gauge", help: "computed name"}, // want `metric family row needs a keyed, constant name`
}

// route shares field names with family but is not a table row, so its
// literals are not checked.
type route struct{ name, kind string }

var routes = []route{{name: "/v1/Runs", kind: "json"}}

func render() string {
	var b strings.Builder
	for _, f := range families {
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
	}
	return b.String() + routes[0].name
}
