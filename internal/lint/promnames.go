package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

// PromNames enforces metrics hygiene over the Prometheus exposition
// in internal/server. /metrics renders from one table of family rows —
// composite literals of the package's `family` struct type in files
// named metrics*.go — and every row's name, kind and label names must
// be keyed constants this analyzer checks:
//
//   - every family matches ^samie_[a-z0-9_]+$
//   - counters end in _total; gauges do not
//   - histograms end in _seconds or _bytes
//   - the kind is counter, gauge or histogram
//   - label names come from the allowed set (PromAllowedLabels)
//   - a family declared twice does not change kind
var PromNames = &Analyzer{
	Name: "promnames",
	Doc:  "checks Prometheus family naming, suffix, kind and label rules over the metrics family table",
	AppliesTo: func(pkgPath string) bool {
		return pkgPath == "samielsq/internal/server"
	},
	Run: runPromNames,
}

// PromAllowedLabels is the closed set of label names the exposition
// may use. Extending it is an API decision: dashboards and the
// cluster aggregation join on these.
var PromAllowedLabels = []string{
	"benchmark", "code", "kind", "le", "phase", "revision",
	"route", "stat", "structure", "tier",
}

// promFamilyType names the struct type whose literals are the family
// table's rows.
const promFamilyType = "family"

var promFamilyRE = regexp.MustCompile(`^samie_[a-z0-9_]+$`)

func runPromNames(p *Pass) error {
	kinds := map[string]string{}
	for _, f := range p.Files {
		base := p.Fset.Position(f.Pos()).Filename
		if i := strings.LastIndexByte(base, '/'); i >= 0 {
			base = base[i+1:]
		}
		if !strings.HasPrefix(base, "metrics") || !strings.HasSuffix(base, ".go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if cl, ok := n.(*ast.CompositeLit); ok {
				if fields := familyFields(p, cl); fields != nil {
					checkFamilyRow(p, cl, fields, kinds)
				}
			}
			return true
		})
	}
	return nil
}

// familyFields returns a row's keyed field values by field name when
// the literal builds one row of the package's family table, nil
// otherwise.
func familyFields(p *Pass, cl *ast.CompositeLit) map[string]ast.Expr {
	named, ok := p.Info.TypeOf(cl).(*types.Named)
	if !ok || named.Obj().Name() != promFamilyType || named.Obj().Pkg() != p.Pkg {
		return nil
	}
	fields := map[string]ast.Expr{}
	for _, el := range cl.Elts {
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if key, ok := kv.Key.(*ast.Ident); ok {
				fields[key.Name] = kv.Value
			}
		}
	}
	return fields
}

// checkFamilyRow applies every per-family rule to one row; kinds
// carries the kind of each family name seen so far.
func checkFamilyRow(p *Pass, cl *ast.CompositeLit, fields map[string]ast.Expr, kinds map[string]string) {
	if labels, ok := fields["labels"]; ok {
		checkFamilyLabels(p, labels)
	}
	name, kind := constString(p, fields["name"]), constString(p, fields["kind"])
	if name == "" {
		p.Reportf(cl.Pos(), "metric family row needs a keyed, constant name")
		return
	}
	pos := fields["name"].Pos()
	if kind == "" {
		p.Reportf(pos, "metric %s needs a constant kind", name)
		return
	}
	if prev, ok := kinds[name]; ok {
		if prev != kind {
			p.Reportf(pos, "metric %s declared as %s here but %s elsewhere", name, kind, prev)
		}
		return
	}
	kinds[name] = kind
	if !promFamilyRE.MatchString(name) {
		p.Reportf(pos, "metric %s does not match ^samie_[a-z0-9_]+$", name)
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			p.Reportf(pos, "counter %s must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			p.Reportf(pos, "gauge %s must not end in _total", name)
		}
	case "histogram":
		if !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_bytes") {
			p.Reportf(pos, "histogram %s must end in _seconds or _bytes", name)
		}
	default:
		p.Reportf(pos, "metric %s has unknown type %q", name, kind)
	}
}

// checkFamilyLabels requires a row's label names to be a literal list
// of constants drawn from PromAllowedLabels.
func checkFamilyLabels(p *Pass, e ast.Expr) {
	cl, ok := ast.Unparen(e).(*ast.CompositeLit)
	if !ok {
		p.Reportf(e.Pos(), "metric family labels must be a literal list")
		return
	}
	for _, el := range cl.Elts {
		l := constString(p, el)
		switch {
		case l == "":
			p.Reportf(el.Pos(), "metric family label names must be constant strings")
		case !pathIn(l, PromAllowedLabels):
			p.Reportf(el.Pos(), "label %q is not in the allowed set %v", l, PromAllowedLabels)
		}
	}
}

// constString returns e's value when it is a string constant, ""
// otherwise (e may be nil).
func constString(p *Pass, e ast.Expr) string {
	if e == nil {
		return ""
	}
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}
