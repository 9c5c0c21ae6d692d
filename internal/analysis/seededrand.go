package analysis

import "go/ast"

// seededRandAllowed are the math/rand and math/rand/v2 package-level names
// that construct explicit streams — the only sanctioned way to get
// randomness here, e.g. internal/sched/sched.go's
// rand.New(rand.NewSource(seed)) idiom and internal/faults' salted
// rand.New(rand.NewPCG(seed, salt)) substreams.
var seededRandAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// SeededRand flags the global math/rand functions (rand.Intn, rand.Float64,
// rand.Seed, ...). They draw from a process-wide shared source, so any two
// call sites — or any change in call order — perturb each other's streams
// and every seeded run stops being reproducible. Methods on an explicit
// *rand.Rand are fine everywhere, including tests.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Run:  runSeededRand,
}

func runSeededRand(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := pkgLevelFunc(pass.Info, sel)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if p := fn.Pkg().Path(); p != "math/rand" && p != "math/rand/v2" {
				return true
			}
			if !seededRandAllowed[fn.Name()] {
				pass.Reportf(sel.Pos(),
					"global rand.%s shares hidden state across call sites; use an explicit rand.New(rand.NewSource(seed)) stream", fn.Name())
			}
			return true
		})
	}
}
