package ilanalyzer_test

import (
	"strings"
	"testing"

	"pdt/internal/core"
	"pdt/internal/ilanalyzer"
	"pdt/internal/pdb"
)

// buildPDB compiles src (with extra files) and analyzes the IL.
func buildPDB(t *testing.T, src string, extra map[string]string, opts ilanalyzer.Options) *pdb.PDB {
	t.Helper()
	copts := core.Options{}
	fs := core.NewFileSet(copts)
	for name, content := range extra {
		fs.AddVirtualFile(name, content)
	}
	res := core.CompileSource(fs, "main.cpp", src, copts)
	for _, d := range res.Diagnostics {
		t.Errorf("diagnostic: %v", d)
	}
	return ilanalyzer.Analyze(res.Unit, opts)
}

func findPDBClass(t *testing.T, p *pdb.PDB, name string) *pdb.Class {
	t.Helper()
	for _, c := range p.Classes {
		if c.Name == name {
			return c
		}
	}
	var names []string
	for _, c := range p.Classes {
		names = append(names, c.Name)
	}
	t.Fatalf("class %q not in PDB; have %v", name, names)
	return nil
}

func findPDBRoutine(t *testing.T, p *pdb.PDB, name string, classID int) *pdb.Routine {
	t.Helper()
	for _, r := range p.Routines {
		if r.Name == name && (classID == 0 || r.Class.ID == classID) {
			return r
		}
	}
	t.Fatalf("routine %q (class %d) not in PDB", name, classID)
	return nil
}

func findPDBTemplate(t *testing.T, p *pdb.PDB, name, kind string) *pdb.Template {
	t.Helper()
	for _, te := range p.Templates {
		if te.Name == name && te.Kind == kind {
			return te
		}
	}
	t.Fatalf("template %q kind %q not in PDB", name, kind)
	return nil
}

const stackSource = `
#include "StackAr.h"
int main() {
    Stack<int> s;
    for (int i = 0; i < 10; i++)
        s.push(i);
    while (!s.isEmpty())
        s.topAndPop();
    return 0;
}
`

const stackHeader = `#ifndef STACK_AR_H
#define STACK_AR_H
#include <vector>
class Overflow { };
class Underflow { };

template <class Object>
class Stack {
public:
    explicit Stack(int capacity = 10);
    bool isEmpty() const;
    bool isFull() const;
    void push(const Object & x);
    Object topAndPop();
private:
    vector<Object> theArray;
    int topOfStack;
};
#include "StackAr.cpp"
#endif
`

const stackImpl = `template <class Object>
Stack<Object>::Stack(int capacity) : theArray(capacity), topOfStack(-1) { }

template <class Object>
bool Stack<Object>::isEmpty() const {
    return topOfStack == -1;
}

template <class Object>
bool Stack<Object>::isFull() const {
    return topOfStack == theArray.size() - 1;
}

template <class Object>
void Stack<Object>::push(const Object & x) {
    if (isFull())
        throw Overflow();
    theArray[++topOfStack] = x;
}

template <class Object>
Object Stack<Object>::topAndPop() {
    if (isEmpty())
        throw Underflow();
    return theArray.at(topOfStack--);
}
`

func stackFiles() map[string]string {
	return map[string]string{"StackAr.h": stackHeader, "StackAr.cpp": stackImpl}
}

// TestStackPDB is experiment E3: the PDB for the paper's Figure 1/3
// Stack program contains the same structure the paper shows.
func TestStackPDB(t *testing.T) {
	p := buildPDB(t, stackSource, stackFiles(), ilanalyzer.Options{})

	// (2)/(5): the header "includes" the implementation file, so that
	// templates are instantiated in the PDB file.
	var hdr *pdb.SourceFile
	for _, f := range p.Files {
		if f.Name == "StackAr.h" {
			hdr = f
		}
	}
	if hdr == nil {
		t.Fatal("StackAr.h not in PDB")
	}
	foundImpl := false
	for _, inc := range hdr.Includes {
		if f := p.FileByID(inc.ID); f != nil && f.Name == "StackAr.cpp" {
			foundImpl = true
		}
	}
	if !foundImpl {
		t.Error("StackAr.h should include StackAr.cpp (sinc)")
	}

	// (7): class template Stack with tkind class and its text.
	stackT := findPDBTemplate(t, p, "Stack", "class")
	if !strings.Contains(stackT.Text, "template <class Object>") {
		t.Errorf("ttext = %q", stackT.Text)
	}
	// (8): member function template push with tkind memfunc located in
	// the implementation file.
	pushT := findPDBTemplate(t, p, "push", "memfunc")
	if f := p.FileByID(pushT.Loc.File.ID); f == nil || f.Name != "StackAr.cpp" {
		t.Errorf("push template located in %+v", pushT.Loc)
	}

	// (12): Stack<int> instantiates te(Stack); members and attributes.
	cl := findPDBClass(t, p, "Stack<int>")
	if !cl.Instantiation || cl.Template.ID != stackT.ID {
		t.Errorf("Stack<int>: inst=%v ctempl=%v (want te#%d)", cl.Instantiation, cl.Template, stackT.ID)
	}
	if len(cl.Members) != 2 || cl.Members[0].Name != "theArray" || cl.Members[1].Name != "topOfStack" {
		t.Fatalf("members = %+v", cl.Members)
	}
	if cl.Members[0].Access != "priv" || cl.Members[0].Kind != "var" {
		t.Errorf("theArray attrs = %+v", cl.Members[0])
	}
	// theArray's type is the class vector<int>.
	tyArr := p.TypeByID(cl.Members[0].Type.ID)
	if tyArr == nil || tyArr.Kind != "class" || tyArr.Name != "vector<int>" {
		t.Errorf("theArray type = %+v", tyArr)
	}
	if c := p.ClassByID(tyArr.Class.ID); c == nil || c.Name != "vector<int>" {
		t.Errorf("theArray class link = %+v", tyArr.Class)
	}
	if ty := p.TypeByID(cl.Members[1].Type.ID); ty == nil || ty.Kind != "int" {
		t.Errorf("topOfStack type = %+v", ty)
	}
	if len(cl.Funcs) == 0 {
		t.Error("Stack<int> has no cfunc entries")
	}

	// (9): push routine attributes.
	push := findPDBRoutine(t, p, "push", cl.ID)
	if push.Access != "pub" || push.Linkage != "C++" || push.Storage != "NA" ||
		push.Virtual != "no" {
		t.Errorf("push attrs = %+v", push)
	}
	if push.Template.ID != pushT.ID {
		t.Errorf("push rtempl = %v, want te#%d", push.Template, pushT.ID)
	}
	// push calls isFull and vector<int>::operator[].
	isFull := findPDBRoutine(t, p, "isFull", cl.ID)
	foundIsFull := false
	for _, c := range push.Calls {
		if c.Callee.ID == isFull.ID {
			foundIsFull = true
			if c.Virtual {
				t.Error("isFull call should not be virtual")
			}
		}
	}
	if !foundIsFull {
		t.Errorf("push should rcall isFull; calls = %+v", push.Calls)
	}
	// (18): the signature reveals return and parameter types.
	sig := p.TypeByID(push.Signature.ID)
	if sig == nil || sig.Kind != "func" {
		t.Fatalf("push signature = %+v", sig)
	}
	if rt := p.TypeByID(sig.Ret.ID); rt == nil || rt.Kind != "void" {
		t.Errorf("push return type = %+v", rt)
	}
	if len(sig.Args) != 1 {
		t.Fatalf("push args = %+v", sig.Args)
	}
	argT := p.TypeByID(sig.Args[0].ID)
	if argT.Kind != "ref" {
		t.Fatalf("push arg = %+v", argT)
	}
	tref := p.TypeByID(argT.Elem.ID)
	if tref.Kind != "tref" || len(tref.Qual) != 1 || tref.Qual[0] != "const" {
		t.Fatalf("push arg referent = %+v", tref)
	}
	if inner := p.TypeByID(tref.Tref.ID); inner.Kind != "int" {
		t.Errorf("push arg inner type = %+v", inner)
	}
	// (17): isFull's signature is a const member function type.
	isFullSig := p.TypeByID(findPDBRoutine(t, p, "isFull", cl.ID).Signature.ID)
	hasConst := false
	for _, q := range isFullSig.Qual {
		if q == "const" {
			hasConst = true
		}
	}
	if !hasConst {
		t.Errorf("isFull signature should be const: %+v", isFullSig)
	}
}

// TestTable1Coverage is experiment E1: every Table 1 item type appears
// with its documented attributes for a kitchen-sink program.
func TestTable1Coverage(t *testing.T) {
	src := `
#define LIMIT 100
#define SQUARE(x) ((x)*(x))
#undef LIMIT
namespace util {
    enum Mode { FAST, SLOW };
    typedef unsigned long size_type;
    class Base {
    public:
        virtual void work() { }
        virtual ~Base() { }
    };
    class Derived : public Base {
        friend class Auditor;
    public:
        void work() { helper(); }
    private:
        void helper() { }
        int data;
    };
    template <class T> T identity(T v) { return v; }
}
int main() {
    util::Derived d;
    d.work();
    return util::identity(SQUARE(2));
}
`
	p := buildPDB(t, src, nil, ilanalyzer.Options{})
	text := p.String()

	// HEADER
	if !strings.HasPrefix(text, "<PDB 1.0>") {
		t.Error("missing header")
	}
	// SOURCE FILES with includes attribute capability exercised elsewhere.
	if len(p.Files) == 0 {
		t.Error("no source files")
	}
	// ROUTINES: template origin, parent class, access, signature,
	// calls, linkage/storage/virtuality characteristics.
	work := findPDBRoutine(t, p, "work", 0)
	if work.Virtual == "no" {
		// find the Derived::work override instead
		t.Errorf("work should be virtual: %+v", work)
	}
	derived := findPDBClass(t, p, "Derived")
	dWork := findPDBRoutine(t, p, "work", derived.ID)
	if dWork.Virtual != "virt" {
		t.Errorf("Derived::work virtual = %q", dWork.Virtual)
	}
	if len(dWork.Calls) != 1 {
		t.Errorf("Derived::work calls = %+v", dWork.Calls)
	}
	// CLASSES: bases, friends, members with access/kind/type.
	if len(derived.Bases) != 1 || derived.Bases[0].Access != "pub" {
		t.Errorf("bases = %+v", derived.Bases)
	}
	if len(derived.Friends) != 1 || derived.Friends[0] != "Auditor" {
		t.Errorf("friends = %+v", derived.Friends)
	}
	foundData := false
	for _, m := range derived.Members {
		if m.Name == "data" && m.Access == "priv" && m.Kind == "var" {
			foundData = true
		}
	}
	if !foundData {
		t.Errorf("members = %+v", derived.Members)
	}
	// TYPES: function type attributes checked in TestStackPDB.
	if len(p.Types) == 0 {
		t.Error("no types")
	}
	// TEMPLATES: func kind, text.
	ident := findPDBTemplate(t, p, "identity", "func")
	if !strings.Contains(ident.Text, "identity") {
		t.Errorf("ttext = %q", ident.Text)
	}
	// NAMESPACES with members.
	var util *pdb.Namespace
	for _, n := range p.Namespaces {
		if n.Name == "util" {
			util = n
		}
	}
	if util == nil {
		t.Fatal("namespace util missing")
	}
	joined := strings.Join(util.Members, " ")
	for _, want := range []string{"Base", "Derived", "Mode", "size_type"} {
		if !strings.Contains(joined, want) {
			t.Errorf("namespace members missing %s: %v", want, util.Members)
		}
	}
	// MACROS: kind and text.
	if len(p.Macros) != 3 {
		t.Fatalf("macros = %+v", p.Macros)
	}
	if p.Macros[1].Name != "SQUARE" || !strings.Contains(p.Macros[1].Text, "SQUARE(x)") {
		t.Errorf("macro 2 = %+v", p.Macros[1])
	}
	if p.Macros[2].Kind != "undef" {
		t.Errorf("macro 3 = %+v", p.Macros[2])
	}
}

// TestTemplateOriginScanVsDirect is the D2 ablation: the paper-faithful
// location scan attributes instantiations but NOT specializations; the
// proposed direct mode attributes both.
func TestTemplateOriginScanVsDirect(t *testing.T) {
	src := `
template <class T> class Traits {
public:
    int size() { return 1; }
};
template <> class Traits<double> {
public:
    int size() { return 8; }
};
int main() {
    Traits<int> ti;
    Traits<double> td;
    return ti.size() + td.size();
}
`
	scan := buildPDB(t, src, nil, ilanalyzer.Options{TemplateOrigin: ilanalyzer.OriginScan})
	direct := buildPDB(t, src, nil, ilanalyzer.Options{TemplateOrigin: ilanalyzer.OriginDirect})

	check := func(p *pdb.PDB, name string, wantOrigin bool, mode string) {
		t.Helper()
		c := findPDBClass(t, p, name)
		if c.Template.Valid() != wantOrigin {
			t.Errorf("[%s] %s ctempl valid = %v, want %v", mode, name, c.Template.Valid(), wantOrigin)
		}
	}
	check(scan, "Traits<int>", true, "scan")
	check(scan, "Traits<double>", false, "scan") // the paper's limitation
	check(direct, "Traits<int>", true, "direct")
	check(direct, "Traits<double>", true, "direct") // the proposed fix
}

func TestPDBRoundTripFromFrontend(t *testing.T) {
	p := buildPDB(t, stackSource, stackFiles(), ilanalyzer.Options{})
	text := p.String()
	parsed, err := pdb.Read(strings.NewReader(text))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if parsed.String() != text {
		t.Error("frontend-generated PDB does not round-trip")
	}
	if parsed.ItemCount() != p.ItemCount() {
		t.Errorf("item counts differ: %d vs %d", parsed.ItemCount(), p.ItemCount())
	}
}

func TestUnusedMembersHaveNoBodyPos(t *testing.T) {
	src := `
template <class T> class W {
public:
    void used() { }
    void unused() { }
};
int main() { W<int> w; w.used(); return 0; }
`
	p := buildPDB(t, src, nil, ilanalyzer.Options{})
	var cl *pdb.Class
	for _, c := range p.Classes {
		if c.Name == "W<int>" {
			cl = c
		}
	}
	if cl == nil {
		t.Fatal("W<int> missing")
	}
	used := findPDBRoutine(t, p, "used", cl.ID)
	unused := findPDBRoutine(t, p, "unused", cl.ID)
	if !used.Pos.BodyBegin.Valid() {
		t.Error("used member should have a body position")
	}
	if unused.Pos.BodyBegin.Valid() {
		t.Error("unused member must not be instantiated (no body pos) in used mode")
	}
	if len(unused.Calls) != 0 {
		t.Error("unused member must have no calls")
	}
}

func TestCtorDtorKinds(t *testing.T) {
	src := `
class R {
public:
    R() { }
    ~R() { }
    R operator+(const R & o) const { return R(); }
};
void f() { R a, b; R c = a + b; }
`
	p := buildPDB(t, src, nil, ilanalyzer.Options{})
	cl := findPDBClass(t, p, "R")
	kinds := map[string]int{}
	for _, fr := range cl.Funcs {
		r := p.RoutineByID(fr.Routine.ID)
		kinds[r.Kind]++
	}
	if kinds["ctor"] != 1 || kinds["dtor"] != 1 || kinds["op"] != 1 {
		t.Errorf("kinds = %v", kinds)
	}
	// f records ctor and dtor lifetime calls.
	f := findPDBRoutine(t, p, "f", 0)
	var kindSeq []string
	for _, c := range f.Calls {
		kindSeq = append(kindSeq, p.RoutineByID(c.Callee.ID).Kind)
	}
	ctors, dtors := 0, 0
	for _, k := range kindSeq {
		if k == "ctor" {
			ctors++
		}
		if k == "dtor" {
			dtors++
		}
	}
	if ctors < 2 || dtors < 2 {
		t.Errorf("lifetime calls: ctors=%d dtors=%d seq=%v", ctors, dtors, kindSeq)
	}
}

// TestAnalyzerOutputValidates checks referential integrity of every
// generated database (the pdb.Validate invariant).
func TestAnalyzerOutputValidates(t *testing.T) {
	for _, mode := range []ilanalyzer.OriginMode{ilanalyzer.OriginScan, ilanalyzer.OriginDirect} {
		p := buildPDB(t, stackSource, stackFiles(), ilanalyzer.Options{TemplateOrigin: mode})
		if errs := p.Validate(); len(errs) != 0 {
			t.Errorf("mode %v: %d integrity violations, first: %v", mode, len(errs), errs[0])
		}
	}
}

// TestNamespaceAliasesDeterministic compiles a unit with four global
// namespace aliases repeatedly: the alias items, and their IDs, must
// come out in name order and in the same bytes every time.
func TestNamespaceAliasesDeterministic(t *testing.T) {
	src := `
namespace alpha { int a; }
namespace beta { int b; }
namespace gamma { int c; }
namespace delta { int d; }
namespace Z = alpha;
namespace Y = beta;
namespace X = gamma;
namespace W = delta;
int main() { return 0; }
`
	first := buildPDB(t, src, nil, ilanalyzer.Options{})
	var aliases []string
	for _, ns := range first.Namespaces {
		if ns.Alias != "" {
			aliases = append(aliases, ns.Name+"="+ns.Alias)
		}
	}
	if got, want := strings.Join(aliases, " "), "W=delta X=gamma Y=beta Z=alpha"; got != want {
		t.Fatalf("aliases %q, want %q", got, want)
	}
	want := first.String()
	for i := 0; i < 20; i++ {
		if got := buildPDB(t, src, nil, ilanalyzer.Options{}).String(); got != want {
			t.Fatalf("compile %d differs from the first:\n%s\nwant:\n%s", i+1, got, want)
		}
	}
}
