// Package sema implements the semantic analysis of the PDT frontend:
// scope construction, name lookup, type resolution, and — centrally for
// the paper — template instantiation. It lowers the parse tree into the
// IL (internal/il) consumed by the IL Analyzer, the interpreter, and
// every downstream tool.
//
// Instantiation follows the EDG "used" mode the paper selects (§2):
// class templates are instantiated when first used; member functions of
// instantiated class templates are instantiated only when they are
// themselves used (called, referenced, or explicitly instantiated).
// An eager mode ("all") is also provided for the B2 ablation benchmark.
package sema

import (
	"fmt"

	"pdt/internal/cpp/ast"
	"pdt/internal/il"
	"pdt/internal/source"
)

// InstantiationMode selects the template instantiation strategy.
type InstantiationMode int

const (
	// Used instantiates member functions only when used (EDG "used"
	// mode, the paper's choice).
	Used InstantiationMode = iota
	// Eager instantiates every member function of every instantiated
	// class template (EDG automatic/"all" style).
	Eager
)

// Options configure the analysis.
type Options struct {
	Mode InstantiationMode
	// MaxInstantiationDepth bounds recursive instantiation.
	MaxInstantiationDepth int
}

// DefaultOptions returns the standard configuration.
func DefaultOptions() Options {
	return Options{Mode: Used, MaxInstantiationDepth: 64}
}

// Error is a semantic diagnostic.
type Error struct {
	Loc source.Loc
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Loc, e.Msg) }

// Sema analyzes one translation unit.
type Sema struct {
	unit *il.Unit
	opts Options
	errs []*Error

	// scope state during collection
	nsStack    []*il.Namespace
	classStack []*il.Class
	usingNS    []*il.Namespace

	// template member definitions seen out-of-line, keyed by template.
	memberDefs map[*il.Template]map[string][]*ast.FunctionDecl

	// memberTemplates maps a class template to the il.Template entities
	// of its member functions (PDB memfunc/statmem items).
	memberTemplates map[*il.Template]map[string]*il.Template

	// firstTemplate indexes the first template of each name and kind
	// per scope and per unit (see registerTemplate).
	firstTemplate map[templateKey]*il.Template

	// instantiation caches
	classInsts map[string]*il.Class // key: qualified instantiated name

	// pending routine bodies to analyze (worklist; avoids unbounded
	// recursion while instantiating).
	pending  []*il.Routine
	analyzed map[*il.Routine]bool

	depth int

	// enumerators visible at namespace scope, for constant evaluation.
	enumConsts map[string]int64
}

// New returns an analyzer producing into a fresh unit for main.
func New(main *source.File, opts Options) *Sema {
	return &Sema{
		unit:          il.NewUnit(main),
		opts:          opts,
		memberDefs:    map[*il.Template]map[string][]*ast.FunctionDecl{},
		classInsts:    map[string]*il.Class{},
		firstTemplate: map[templateKey]*il.Template{},
		analyzed:      map[*il.Routine]bool{},
		enumConsts:    map[string]int64{},
	}
}

// Unit returns the IL unit under construction.
func (s *Sema) Unit() *il.Unit { return s.unit }

// Errors returns accumulated diagnostics.
func (s *Sema) Errors() []*Error { return s.errs }

func (s *Sema) errorf(loc source.Loc, format string, args ...interface{}) {
	if len(s.errs) < 100 {
		s.errs = append(s.errs, &Error{Loc: loc, Msg: fmt.Sprintf(format, args...)})
	}
}

// Analyze performs the full analysis of a parsed translation unit and
// returns the IL.
func (s *Sema) Analyze(tu *ast.TranslationUnit) *il.Unit {
	s.unit.AddFile(tu.File)
	s.collectFiles(tu.File)
	s.nsStack = []*il.Namespace{s.unit.Global}
	s.collectDecls(tu.Decls, ast.NoAccess)
	s.drainPending()
	return s.unit
}

// collectFiles records the include closure in first-visit order.
func (s *Sema) collectFiles(f *source.File) {
	s.unit.AddFile(f)
	for _, inc := range f.Includes {
		already := false
		for _, e := range s.unit.Files {
			if e == inc {
				already = true
				break
			}
		}
		s.unit.AddFile(inc)
		if !already {
			s.collectFiles(inc)
		}
	}
}

// currentNS returns the namespace being collected into.
func (s *Sema) currentNS() *il.Namespace { return s.nsStack[len(s.nsStack)-1] }

// currentClass returns the class being collected into, or nil.
func (s *Sema) currentClass() *il.Class {
	if len(s.classStack) == 0 {
		return nil
	}
	return s.classStack[len(s.classStack)-1]
}

// currentScope returns the innermost scope (class or namespace).
func (s *Sema) currentScope() il.Scope {
	if c := s.currentClass(); c != nil {
		return c
	}
	return s.currentNS()
}

// drainPending analyzes queued routine bodies until quiescent. Body
// analysis may instantiate templates, which queues more bodies.
func (s *Sema) drainPending() {
	for len(s.pending) > 0 {
		r := s.pending[0]
		s.pending = s.pending[1:]
		if s.analyzed[r] {
			continue
		}
		s.analyzed[r] = true
		s.analyzeBody(r)
	}
}

// queueBody schedules a routine's body for analysis.
func (s *Sema) queueBody(r *il.Routine) {
	if r == nil || s.analyzed[r] {
		return
	}
	s.pending = append(s.pending, r)
}

// Stats summarizes instantiation work, used by the B2 benchmark and by
// cxxparse's -v output.
type Stats struct {
	Classes        int
	Routines       int
	ClassInsts     int
	RoutineInsts   int
	BodiesAnalyzed int
	Types          int
}

// Stats returns analysis statistics.
func (s *Sema) Stats() Stats {
	st := Stats{
		Classes:  len(s.unit.AllClasses),
		Routines: len(s.unit.AllRoutines),
		Types:    s.unit.Types.Len(),
	}
	for _, c := range s.unit.AllClasses {
		if c.IsInstantiation {
			st.ClassInsts++
		}
	}
	for _, r := range s.unit.AllRoutines {
		if r.IsInstantiation {
			st.RoutineInsts++
		}
	}
	st.BodiesAnalyzed = len(s.analyzed)
	return st
}
