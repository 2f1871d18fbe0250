package repro

// TestCensus is the exported-name census gate. It parses every non-test Go
// file in the repository (cmd/, examples/ and bench/ count as callers) and
// fails when an exported top-level name declared under internal/ — a
// function, method, type, variable or constant — has no identifier use
// outside its own declaration, unless censusKeep lists it with the reason
// it stays. It also fails on a stale censusKeep entry: one whose name is now
// used, or no longer exists.
//
// The census matches by name, not by type: a use of any identifier spelled
// like the declared name counts, so an unused method that shares its name
// with a used one passes. That makes the gate a ratchet against new
// test-only or caller-less exports, not a proof that every export is used.
// A name that fails it should be deleted, moved into its package's
// _test.go files when one package's tests use it, or kept here with its
// reason.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusKeep lists the exported names no non-test file uses, each with the
// reason it stays.
var censusKeep = map[string]string{
	// Methods reached by reflection or through an interface.
	"internal/disease.Model.MarshalJSON":    "encoding/json calls it",
	"internal/disease.Model.UnmarshalJSON":  "encoding/json calls it",
	"internal/obs.AttrList.MarshalJSON":     "encoding/json calls it",
	"internal/scenario.BadSpecError.Unwrap": "errors.Is and errors.As call it",
	"internal/scenario.DrainError.Unwrap":   "errors.Is and errors.As call it",

	// The reader of every file a binary writes.
	"internal/synthpop.ReadNetworkBinary":     "reads what popgen -format binary writes",
	"internal/synthpop.ReadNetworkCSV":        "reads what popgen -format csv writes",
	"internal/synthpop.ReadPersonsCSV":        "reads what popgen writes",
	"internal/synthpop.ReadPartitions":        "reads what popgen writes",
	"internal/synthpop.ValidatePartitionsFor": "checks what popgen writes against its network",
	"internal/output.ReadSummaryCSV":          "reads the county summaries the pipeline writes",

	// Test helpers that the tests of several packages share.
	"internal/obs.FixedClock":                    "fake clock shared by the tests of several packages",
	"internal/scenario/servetest.AssertQuiesced": "quiescence check shared by the serving tests",
	"internal/cluster.ValidateExecution":         "execution checker shared by the sched, cluster and core tests",
	"internal/epihiper.Sim.SwapInterventions":    "from-scratch what-if reference shared by the epihiper and core tests",

	// Paper constructs (PAPER.md §1), or names a root bench_*_test.go
	// figure benchmark calls.
	"internal/sched.RelaxedColoring":                     "the paper's r-relaxed coloring",
	"internal/sched.ValidateRelaxedColoring":             "the paper's r-relaxed coloring",
	"internal/sched.FIFO":                                "baseline of the scheduling figure benchmark",
	"internal/epihiper.TargetInState":                    "Appendix D action-ensemble target",
	"internal/epihiper.TargetAgeBand":                    "Appendix D action-ensemble target",
	"internal/epihiper.TargetCounty":                     "Appendix D action-ensemble target",
	"internal/epihiper.TargetTraitAbove":                 "Appendix D action-ensemble target",
	"internal/epihiper.OpVaccinate":                      "Appendix D action-ensemble operation",
	"internal/epihiper.OpScaleInfectivity":               "Appendix D action-ensemble operation",
	"internal/epihiper.OpSetTrait":                       "Appendix D action-ensemble operation",
	"internal/epihiper.OpDisableContext":                 "Appendix D action-ensemble operation",
	"internal/epihiper.OnDay":                            "trigger of the intervention figure benchmark",
	"internal/epihiper.BaseCaseInterventions":            "the paper's base-case intervention set (Figure 7)",
	"internal/disease.SIR":                               "the Appendix A model of the Figure 11 example",
	"internal/metapop.NewUS":                             "the national metapopulation model of the figure benchmark",
	"internal/metapop.DefaultNationalConfig":             "configures NewUS in the figure benchmark",
	"internal/surveillance.GenerateUS":                   "national ground truth of the figure benchmark",
	"internal/surveillance.StateTruth.CountiesWithCases": "county coverage of the figure benchmark",
	"internal/synthpop.FitJointAgeHousehold":             "the paper's IPF population fit (Appendix C)",
	"internal/synthpop.GenerateWithLocations":            "the paper's staged population generation (Appendix C)",
	"internal/synthpop.PartitionImbalance":               "partition balance of the figure benchmark",
	"internal/core.Pipeline.RefitCalibration":            "the paper's refit against updated ground truth",
	"internal/core.SeedsFromSurveillance":                "the paper's seeding from surveillance data",

	// Encoded in the EPSNAP snapshot format.
	"internal/epihiper.Sim.MemoryTrace": "exposes memTrace, which EPSNAP encodes",
}

type censusDecl struct {
	key, name string
	pos       token.Position
}

func TestCensus(t *testing.T) {
	fset := token.NewFileSet()
	var decls []censusDecl
	declIdent := map[token.Pos]bool{}
	var files []*ast.File
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		if !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			return nil
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		add := func(id *ast.Ident, key string) {
			decls = append(decls, censusDecl{key: key, name: id.Name, pos: fset.Position(id.Pos())})
			declIdent[id.Pos()] = true
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() {
					continue
				}
				key := pkg + "." + d.Name.Name
				if d.Recv != nil {
					key = pkg + "." + receiverName(d.Recv.List[0].Type) + "." + d.Name.Name
				}
				add(d.Name, key)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() {
							add(s.Name, pkg+"."+s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() {
								add(n, pkg+"."+n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declIdent[id.Pos()] {
				used[id.Name] = true
			}
			return true
		})
	}

	declared := map[string]bool{}
	var unused []string
	for _, d := range decls {
		declared[d.key] = true
		if !used[d.name] {
			if _, keep := censusKeep[d.key]; !keep {
				unused = append(unused, d.key+" ("+d.pos.String()+")")
			}
		} else if _, keep := censusKeep[d.key]; keep {
			t.Errorf("stale censusKeep entry %s: the name is now used; delete the entry", d.key)
		}
	}
	for key := range censusKeep {
		if !declared[key] {
			t.Errorf("stale censusKeep entry %s: no such exported name; delete the entry", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported %s has no caller outside tests: delete it, move it into its package's _test.go files, or add it to censusKeep with its reason", u)
	}
}

// receiverName returns the type name of a method receiver, without pointer
// or type parameters.
func receiverName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverName(e.X)
	case *ast.IndexExpr:
		return receiverName(e.X)
	case *ast.IndexListExpr:
		return receiverName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}
