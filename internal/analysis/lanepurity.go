package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"
)

// Lanepurity proves the lane-execution contract behind the parallel
// host service: code reachable from a lane entry point may write only
// lane-local state (the lane struct itself, its LaneClock, counters,
// and histograms) or state covered by the lane's admitted footprint
// through the accessors built for that purpose. It builds a static
// call graph rooted at the lane entry points — the methods of
// internal/core's lane type, plus any function annotated with an
// `//envyvet:lane-entry` doc comment — propagates a "runs in lane
// context" fact through calls (across package boundaries, via
// function facts), and flags every reachable write to a package-level
// variable or to device-shared structures (Device, Scheduler, flash
// Array/BankSet, SRAM Buffer, page table, cleaner Engine). Every lane
// of a batch must see the state its footprint was admitted against;
// such a write would let one lane's outcome depend on the lanes served
// before it, so it belongs in the serial admission or merge phases. The analyzer resolves only
// static calls (direct and concrete-method); the core deliberately
// avoids dynamic dispatch on lane paths.
var Lanepurity = &Analyzer{
	Name: "lanepurity",
	Doc:  "flag writes to package-level or device-shared state reachable from lane entry points",
	Run:  runLanepurity,
}

// laneCorePath is the package whose lane type roots the call graph.
const laneCorePath = "envy/internal/core"

// laneEntryDirective marks additional lane entry points (for worker
// loops outside internal/core) when it appears in a function's doc
// comment.
const laneEntryDirective = "//envyvet:lane-entry"

// laneSharedTypes are the structures shared between lanes (and with
// the background machinery). Writing through any of them from lane
// context is a violation. Deliberately absent: sram.Frame and
// pagetable.MMU (footprint-covered — no other batch member touches the
// frames and shard MMU a lane uses),
// sim.LaneClock and the stats types (lane-local by construction).
var laneSharedTypes = map[string]bool{
	"envy/internal/core.Device":             true,
	"envy/internal/host.Engine":             true,
	"envy/internal/sched.Scheduler":         true,
	"envy/internal/flash.Array":             true,
	"envy/internal/flash.BankSet":           true,
	"envy/internal/flash.segment":           true,
	"envy/internal/sram.Buffer":             true,
	"envy/internal/pagetable.Table":         true,
	"envy/internal/cleaner.Engine":          true,
	"envy/internal/cleaner.Selector":        true,
	"envy/internal/maptier.Tier":            true,
	"envy/internal/pagetable.DiffDirectory": true,
	"envy/internal/cluster.Cluster":         true,
}

// maxLaneEffects caps the effect list carried per function; beyond it
// one witness per description is plenty.
const maxLaneEffects = 8

// A laneEffect is one impure write reachable from a function, with
// enough of the call chain to render a cross-package witness path.
type laneEffect struct {
	Desc string   `json:"desc"` // what is written, e.g. "write to shared envy/internal/core.Device state"
	Site string   `json:"site"` // file:line of the write itself
	Path []string `json:"path"` // call chain from the function to the write, outermost first
}

// A laneFact summarizes a function's reachable impure writes for
// importing packages.
type laneFact struct {
	Effects []laneEffect `json:"effects"`
}

// localEffect pairs a serializable effect with the position to report
// it at in this package: the write itself, or the call that reaches it.
type localEffect struct {
	laneEffect
	pos token.Pos
}

func runLanepurity(pass *Pass) error {
	decls := declaredFuncs(pass)
	byObj := make(map[*types.Func]declFunc, len(decls))
	for _, d := range decls {
		byObj[d.obj] = d
	}

	// effects computes (memoized) the impure writes reachable from fn.
	// Cycles in the call graph contribute nothing beyond their first
	// traversal, so in-progress functions resolve to their
	// partial (empty) summary.
	memo := make(map[*types.Func][]localEffect)
	visiting := make(map[*types.Func]bool)
	var effects func(fn *types.Func) []localEffect
	effects = func(fn *types.Func) []localEffect {
		if got, ok := memo[fn]; ok {
			return got
		}
		if visiting[fn] {
			return nil
		}
		visiting[fn] = true
		defer delete(visiting, fn)

		d, ok := byObj[fn]
		if !ok {
			return nil
		}
		var out []localEffect
		seen := make(map[string]bool)
		add := func(e localEffect) {
			key := e.Desc + "|" + e.Site
			if seen[key] || len(out) >= maxLaneEffects {
				return
			}
			seen[key] = true
			out = append(out, e)
		}
		ast.Inspect(d.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if desc := laneWriteDesc(pass, lhs, n.Tok); desc != "" {
						add(localEffect{laneEffect{Desc: desc, Site: site(pass.Fset, lhs.Pos())}, lhs.Pos()})
					}
				}
			case *ast.IncDecStmt:
				if desc := laneWriteDesc(pass, n.X, token.ASSIGN); desc != "" {
					add(localEffect{laneEffect{Desc: desc, Site: site(pass.Fset, n.X.Pos())}, n.X.Pos()})
				}
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					for _, lhs := range []ast.Expr{n.Key, n.Value} {
						if lhs == nil {
							continue
						}
						if desc := laneWriteDesc(pass, lhs, n.Tok); desc != "" {
							add(localEffect{laneEffect{Desc: desc, Site: site(pass.Fset, lhs.Pos())}, lhs.Pos()})
						}
					}
				}
			case *ast.CallExpr:
				callee := staticCallee(pass.TypesInfo, n)
				if callee == nil {
					return true
				}
				step := displayName(pass.Pkg, callee)
				if callee.Pkg() == pass.Pkg {
					for _, e := range effects(callee) {
						add(localEffect{
							laneEffect{Desc: e.Desc, Site: e.Site, Path: append([]string{step}, e.Path...)},
							n.Pos(),
						})
					}
					return true
				}
				if inModule(callee.Pkg()) {
					var fact laneFact
					if pass.ImportFunctionFact(callee, &fact) {
						for _, e := range fact.Effects {
							add(localEffect{
								laneEffect{Desc: e.Desc, Site: e.Site, Path: append([]string{step}, e.Path...)},
								n.Pos(),
							})
						}
					}
				}
			}
			return true
		})
		memo[fn] = out
		return out
	}

	// Summarize every declared function so importing packages can see
	// through calls into this one.
	for _, d := range decls {
		if pass.InTestFile(d.decl.Pos()) {
			continue
		}
		got := effects(d.obj)
		if len(got) == 0 {
			continue
		}
		fact := laneFact{Effects: make([]laneEffect, len(got))}
		for i, e := range got {
			fact.Effects[i] = e.laneEffect
		}
		pass.ExportFunctionFact(d.obj, fact)
	}

	// Report at the entry points.
	reported := make(map[string]bool)
	for _, d := range decls {
		if pass.InTestFile(d.decl.Pos()) || !laneEntry(pass, d) {
			continue
		}
		entry := displayName(pass.Pkg, d.obj)
		for _, e := range effects(d.obj) {
			key := site(pass.Fset, e.pos) + "|" + e.Desc
			if reported[key] {
				continue
			}
			reported[key] = true
			if len(e.Path) == 0 {
				pass.Reportf(e.pos, "lanepurity: %s in lane entry %s; lane code may write only lane-local state", e.Desc, entry)
			} else {
				pass.Reportf(e.pos, "lanepurity: %s at %s, reachable from lane entry %s via %s; lane code may write only lane-local state",
					e.Desc, e.Site, entry, strings.Join(e.Path, " → "))
			}
		}
	}
	return nil
}

// laneEntry reports whether a declared function roots the lane call
// graph: a method on internal/core's lane type, or any function whose
// doc comment carries the //envyvet:lane-entry directive.
func laneEntry(pass *Pass, d declFunc) bool {
	if pass.Pkg.Path() == laneCorePath {
		if recv := d.obj.Type().(*types.Signature).Recv(); recv != nil {
			if named := receiverNamed(recv.Type()); named != nil && named.Obj().Name() == "lane" {
				return true
			}
		}
	}
	if d.decl.Doc != nil {
		for _, c := range d.decl.Doc.List {
			if strings.HasPrefix(c.Text, laneEntryDirective) {
				return true
			}
		}
	}
	return false
}

// laneWriteDesc classifies one assignment target. It returns a
// non-empty description when the target is a package-level variable or
// reaches through a value of a shared type; "" when the write is
// local. Definitions (`:=`) never write shared state.
func laneWriteDesc(pass *Pass, lhs ast.Expr, tok token.Token) string {
	if tok == token.DEFINE {
		return ""
	}
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return ""
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			obj = pass.TypesInfo.Defs[id]
		}
		if v, ok := obj.(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return "write to package-level var " + v.Pkg().Path() + "." + v.Name()
		}
		return ""
	}
	// Walk the access path (selectors, indexes, derefs) toward its
	// base; the write lands in shared state if any step is typed as a
	// shared structure.
	for {
		var base ast.Expr
		switch e := lhs.(type) {
		case *ast.SelectorExpr:
			base = e.X
		case *ast.IndexExpr:
			base = e.X
		case *ast.StarExpr:
			base = e.X
		case *ast.ParenExpr:
			base = e.X
		default:
			return ""
		}
		if tv, ok := pass.TypesInfo.Types[base]; ok {
			if class := typeClass(namedOf(tv.Type)); class != "" && laneSharedTypes[class] {
				return "write to shared " + class + " state"
			}
		}
		lhs = base
	}
}

// inModule reports whether pkg belongs to this module.
func inModule(pkg *types.Package) bool {
	if pkg == nil {
		return false
	}
	return pkg.Path() == "envy" || strings.HasPrefix(pkg.Path(), "envy/")
}

// site renders a position as file:line using the file's base name, so
// facts and messages stay stable across checkouts.
func site(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	name := p.Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name + ":" + strconv.Itoa(p.Line)
}
