package analysis

import (
	"go/ast"
	"go/types"
)

// ClockDiscipline bans direct real-clock reads in scheduling code.
// Every instant in internal/sched, internal/sim and internal/server
// must flow through the internal/clock interface so a journaled
// arena-server run replays bit-identically on a virtual clock (PR 7's
// crash-recovery guarantee). time.Duration values and constants stay
// legal — the ban is on acquiring instants or waiting on the real
// clock, not on describing durations.
//
// Uses are resolved through the type checker, so aliased imports,
// dot-imports and local variables named `time` are all handled exactly.
var ClockDiscipline = &Analyzer{
	Name: "clockdiscipline",
	Doc: "report direct time.Now/Sleep/... calls in scheduling code; " +
		"take instants from internal/clock so journaled runs replay deterministically",
	Scope:     []string{"internal/sched", "internal/sim", "internal/server"},
	SkipTests: true,
	Run:       runClockDiscipline,
}

// bannedTimeFuncs are the package-time entry points that read or wait
// on the real clock.
var bannedTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTicker": true, "NewTimer": true,
}

func runClockDiscipline(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[id]
			if obj == nil || !bannedTimeFuncs[obj.Name()] {
				return true
			}
			fn, ok := obj.(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			pass.Reportf(id.Pos(),
				"time.%s in scheduling code: take time from internal/clock so journaled runs replay deterministically",
				obj.Name())
			return true
		})
	}
	return nil
}
