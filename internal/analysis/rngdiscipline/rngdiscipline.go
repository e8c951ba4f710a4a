// Package rngdiscipline enforces the engine's randomness contract.
//
// All simulated randomness flows from sim.RNG, forked index→seed so
// that every experiment cell owns an independent, reproducible
// stream. Three rules make that machine-checkable:
//
//  1. Non-test code outside internal/sim must not import math/rand
//     (any version); nothing may import crypto/rand. sim.RNG is the
//     only randomness the simulation knows, and internal/sim is its
//     only implementation site: sim keeps math/rand only to wrap the
//     PCG source (rand.New over it supplies the derived draws).
//
//  2. Test files may build seeded scratch randomness —
//     rand.New(rand.NewSource(k)) is deterministic by the Go 1
//     compatibility promise — but must not call the package-level
//     math/rand functions (rand.Intn, rand.Perm, ...): those draw
//     from the auto-seeded global source, which changes every run.
//
//  3. Closures handed to the experiment scheduler (core.RunN /
//     core.RunEach) must not capture a *sim.RNG from the enclosing
//     scope. A shared stream read from pool-scheduled cells is drawn
//     in scheduling order, destroying the bit-identical-at-any-worker-
//     count guarantee; each cell must derive its stream from its own
//     index (RNG.Fork(i), or an index→seed testbed constructor).
package rngdiscipline

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "rngdiscipline",
	Doc: "enforce sim.RNG discipline: no math/rand (crypto/rand) outside internal/sim, no " +
		"auto-seeded global rand in tests, no shared *sim.RNG captured by scheduler closures",
	Run: run,
}

var (
	simPkg  = analysis.ModulePath + "/internal/sim"
	corePkg = analysis.ModulePath + "/internal/core"
)

// seededCtors are the math/rand package-level functions that build or
// feed explicitly-seeded generators — the allowed test idiom.
var seededCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
	"NewZipf":    true,
}

func run(pass *analysis.Pass) error {
	pkgPath := analysis.PkgPath(pass.Pkg)
	inSim := pkgPath == simPkg
	if strings.HasPrefix(pkgPath, analysis.ModulePath+"/internal/analysis") {
		return nil
	}
	for _, f := range pass.Files {
		testFile := analysis.IsTestFile(pass.Fset, f)
		checkImports(pass, f, inSim, testFile)
		if !inSim {
			checkGlobalRand(pass, f)
		}
		checkSchedulerClosures(pass, f)
	}
	return nil
}

// checkImports applies rule 1: import hygiene.
func checkImports(pass *analysis.Pass, f *ast.File, inSim, testFile bool) {
	for _, imp := range f.Imports {
		path, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		switch path {
		case "crypto/rand":
			if !inSim {
				pass.Reportf(imp.Pos(),
					"crypto/rand import: simulated randomness must be deterministic; use sim.RNG")
			}
		case "math/rand", "math/rand/v2":
			if !inSim && !testFile {
				pass.Reportf(imp.Pos(),
					"%s import outside internal/sim: all simulation randomness flows from sim.RNG "+
						"(fork per cell via RNG.Fork)", path)
			}
		}
	}
}

// checkGlobalRand applies rule 2: in any file (the import rule already
// restricts non-test files), calls to math/rand package-level
// functions other than the seeded constructors use the auto-seeded
// process-global source and are flagged.
func checkGlobalRand(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil {
			return true
		}
		pkg := analysis.ObjPkgPath(obj)
		if pkg != "math/rand" && pkg != "math/rand/v2" {
			return true
		}
		fn, ok := obj.(*types.Func)
		if !ok || fn.Signature().Recv() != nil {
			return true // methods on an explicit *rand.Rand are fine
		}
		if seededCtors[fn.Name()] {
			return true
		}
		pass.Reportf(sel.Pos(),
			"auto-seeded global rand.%s: draws change every run; use rand.New(rand.NewSource(seed)) "+
				"or a sim.RNG fork", fn.Name())
		return true
	})
}

// checkSchedulerClosures applies rule 3: function literals passed to
// core.RunN / core.RunEach must not capture a *sim.RNG declared
// outside the literal.
func checkSchedulerClosures(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := analysis.CalleeObj(pass.TypesInfo, call.Fun)
		if callee == nil || analysis.ObjPkgPath(callee) != corePkg {
			return true
		}
		if name := callee.Name(); name != "RunN" && name != "RunEach" {
			return true
		}
		for _, arg := range call.Args {
			lit, ok := arg.(*ast.FuncLit)
			if !ok {
				continue
			}
			reportRNGCaptures(pass, lit, callee.Name())
		}
		return true
	})
}

// reportRNGCaptures walks a scheduler cell body and reports each
// distinct *sim.RNG variable captured from outside the literal.
func reportRNGCaptures(pass *analysis.Pass, lit *ast.FuncLit, scheduler string) {
	seen := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if path, name := analysis.NamedPkgPath(v.Type()); path != simPkg || name != "RNG" {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() <= lit.End() {
			return true // declared inside the cell: per-cell state, fine
		}
		seen[v] = true
		pass.Reportf(id.Pos(),
			"closure passed to core.%s captures shared *sim.RNG %q: pool cells drain a shared stream "+
				"in scheduling order; derive per-cell randomness from the index (e.g. rng.Fork(uint64(i)))",
			scheduler, v.Name())
		return true
	})
}
