// Package tracenames keeps the observability schema and the code that
// emits it in lockstep.
//
// DESIGN.md §5a carries a schema table of every tracer event and metric
// series the instrumentation layer produces; dashboards and trace
// consumers are written against it. This analyzer checks each name
// passed to Tracer.Emit / Tracer.Begin and Registry.Counter / Gauge /
// Histogram against that table, so renaming an event in code without
// updating the schema (or vice versa) fails the build instead of
// silently orphaning a dashboard. Names must be string literals (or a
// literal wrapped in obs.WithLabel) precisely so this check can see
// them.
package tracenames

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"

	"physdes/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "tracenames",
	Doc:  "verify tracer event and metric names against the DESIGN §5a schema table",
	// internal/obs is the machinery itself: it handles caller-provided
	// names generically and emits none of its own.
	AppliesTo: analysis.IsLibraryOutsideObs,
	Run:       run,
}

// Schema is the allowed name sets, normally parsed from DESIGN.md.
type Schema struct {
	Events  map[string]bool
	Metrics map[string]bool
}

var (
	override    *Schema
	cache       = map[string]*Schema{}
	schemaRowRE = regexp.MustCompile("(?m)^\\s*\\|\\s*(event|metric)\\s*\\|\\s*`([^`]+)`")
)

// SetSchema overrides the DESIGN.md-derived schema (tests). Passing nil
// slices restores file-based loading.
func SetSchema(events, metrics []string) {
	if events == nil && metrics == nil {
		override = nil
		return
	}
	s := &Schema{Events: map[string]bool{}, Metrics: map[string]bool{}}
	for _, e := range events {
		s.Events[e] = true
	}
	for _, m := range metrics {
		s.Metrics[m] = true
	}
	override = s
}

// LoadDesignSchema parses the schema table out of a DESIGN.md file:
// rows of the form `| event | `name` | ... |` or `| metric | ... |`.
func LoadDesignSchema(path string) (*Schema, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s := &Schema{Events: map[string]bool{}, Metrics: map[string]bool{}}
	for _, m := range schemaRowRE.FindAllStringSubmatch(string(data), -1) {
		switch m[1] {
		case "event":
			s.Events[m[2]] = true
		case "metric":
			s.Metrics[m[2]] = true
		}
	}
	if len(s.Events) == 0 && len(s.Metrics) == 0 {
		return nil, fmt.Errorf("%s: no schema table rows found (| event | `name` | …)", path)
	}
	return s, nil
}

func schemaFor(pass *analysis.Pass) (*Schema, error) {
	if override != nil {
		return override, nil
	}
	if pass.ModuleRoot == "" {
		return nil, fmt.Errorf("tracenames: no schema configured and no module root to load DESIGN.md from")
	}
	path := filepath.Join(pass.ModuleRoot, "DESIGN.md")
	if s, ok := cache[path]; ok {
		return s, nil
	}
	s, err := LoadDesignSchema(path)
	if err != nil {
		return nil, err
	}
	cache[path] = s
	return s, nil
}

func run(pass *analysis.Pass) error {
	// The schema loads lazily: a package that emits no names never
	// needs DESIGN.md (so throwaway test modules pass), while the first
	// checked name in a schema-less module surfaces the load error.
	var (
		schema    *Schema
		schemaErr error
	)
	getSchema := func() *Schema {
		if schema == nil && schemaErr == nil {
			schema, schemaErr = schemaFor(pass)
		}
		return schema
	}
	pass.Preorder(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv := analysis.NamedReceiver(pass.Info, sel)
		if recv == nil {
			return true
		}
		switch sel.Sel.Name {
		case "Emit", "Begin":
			if recv.Obj().Name() != "Tracer" {
				return true
			}
			schema := getSchema()
			if schema == nil {
				return false
			}
			name, pos, ok := literalName(pass, call.Args[0])
			if !ok {
				pass.Reportf(call.Args[0].Pos(),
					"event name passed to Tracer.%s must be a string literal so the schema check can see it", sel.Sel.Name)
				return true
			}
			if sel.Sel.Name == "Emit" {
				checkName(pass, pos, schema.Events, name, "tracer event")
			} else {
				// Begin/End emit the derived pair.
				checkName(pass, pos, schema.Events, name+".begin", "tracer event")
				checkName(pass, pos, schema.Events, name+".end", "tracer event")
			}
		case "Counter", "Gauge", "Histogram":
			if recv.Obj().Name() != "Registry" {
				return true
			}
			schema := getSchema()
			if schema == nil {
				return false
			}
			arg := call.Args[0]
			// A labeled series arrives as WithLabel("name", k, v).
			if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) > 0 {
				if fn, ok := inner.Fun.(*ast.SelectorExpr); ok && fn.Sel.Name == "WithLabel" {
					arg = inner.Args[0]
				} else if fn, ok := inner.Fun.(*ast.Ident); ok && fn.Name == "WithLabel" {
					arg = inner.Args[0]
				}
			}
			name, pos, ok := literalName(pass, arg)
			if !ok {
				pass.Reportf(call.Args[0].Pos(),
					"metric name passed to Registry.%s must be a string literal (optionally via WithLabel) so the schema check can see it", sel.Sel.Name)
				return true
			}
			checkName(pass, pos, schema.Metrics, name, "metric")
		}
		return true
	})
	return schemaErr
}

// literalName unquotes a string literal expression.
func literalName(pass *analysis.Pass, e ast.Expr) (string, token.Pos, bool) {
	lit, ok := e.(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", 0, false
	}
	s, err := strconv.Unquote(lit.Value)
	if err != nil {
		return "", 0, false
	}
	return s, lit.Pos(), true
}

func checkName(pass *analysis.Pass, pos token.Pos, allowed map[string]bool, name, kind string) {
	if !allowed[name] {
		pass.Reportf(pos,
			"%s %q does not appear in the DESIGN §5a schema table; add a schema row or fix the name", kind, name)
	}
}
