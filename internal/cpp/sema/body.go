package sema

import (
	"pdt/internal/cpp/ast"
	"pdt/internal/il"
	"pdt/internal/source"
)

// bodyCtx is the environment for analyzing one routine body.
type bodyCtx struct {
	s     *Sema
	r     *il.Routine
	class *il.Class
	b     bindings
	// scopes holds local variable types, innermost last.
	scopes []map[string]*il.Type
	// objs tracks class-typed locals per scope for destructor-call
	// extraction at scope exit (the paper's "lifetime" processing).
	objs [][]*il.Class
}

// analyzeBody walks a routine's body, resolving types and recording
// static call sites (PDB "rcall"), including constructor and destructor
// calls which the EDG IL does not represent as ordinary calls (§3.1).
func (s *Sema) analyzeBody(r *il.Routine) {
	if r.Decl == nil || r.Decl.Body == nil {
		return
	}
	// Re-establish the lexical context of the routine.
	savedNS, savedClasses := s.nsStack, s.classStack
	defer func() { s.nsStack, s.classStack = savedNS, savedClasses }()
	s.nsStack = nsChainOf(s.unit.Global, r)
	if r.Class != nil {
		s.classStack = []*il.Class{r.Class}
	} else {
		s.classStack = nil
	}

	ctx := &bodyCtx{s: s, r: r, class: r.Class, b: r.Bindings}
	ctx.push()
	for _, p := range r.Params {
		ctx.declare(p.Name, p.Type)
	}
	// Constructor initializers: member/base construction calls.
	for _, init := range r.Decl.Inits {
		var argTypes []*il.Type
		for _, a := range init.Args {
			argTypes = append(argTypes, ctx.typeOf(a))
		}
		ctx.recordInitCall(init, argTypes)
	}
	ctx.walkStmt(r.Decl.Body)
	ctx.pop(r.BodySpan.End)
}

// nsChainOf rebuilds the namespace stack (outermost first) enclosing r.
func nsChainOf(global *il.Namespace, r *il.Routine) []*il.Namespace {
	ns := r.Namespace
	if ns == nil && r.Class != nil {
		ns = r.Class.ScopeNamespace()
	}
	if ns == nil {
		return []*il.Namespace{global}
	}
	var chain []*il.Namespace
	for n := ns; n != nil; n = n.Parent {
		chain = append([]*il.Namespace{n}, chain...)
	}
	if len(chain) == 0 || chain[0] != global {
		chain = append([]*il.Namespace{global}, chain...)
	}
	return chain
}

func (c *bodyCtx) push() {
	c.scopes = append(c.scopes, map[string]*il.Type{})
	c.objs = append(c.objs, nil)
}

// pop closes a scope, recording destructor calls for the class-typed
// locals it owned (in reverse declaration order) at the scope-end
// location.
func (c *bodyCtx) pop(end source.Loc) {
	top := c.objs[len(c.objs)-1]
	for i := len(top) - 1; i >= 0; i-- {
		c.recordDtor(top[i], end)
	}
	c.scopes = c.scopes[:len(c.scopes)-1]
	c.objs = c.objs[:len(c.objs)-1]
}

func (c *bodyCtx) declare(name string, t *il.Type) {
	if name != "" {
		c.scopes[len(c.scopes)-1][name] = t
	}
}

func (c *bodyCtx) lookupLocal(name string) *il.Type {
	for i := len(c.scopes) - 1; i >= 0; i-- {
		if t, ok := c.scopes[i][name]; ok {
			return t
		}
	}
	return nil
}

func (c *bodyCtx) trackObj(t *il.Type) {
	u := t.Unqualified()
	if u.Kind == il.TClass && u.Class != nil {
		c.objs[len(c.objs)-1] = append(c.objs[len(c.objs)-1], u.Class)
	}
}

// record appends a call site and marks the callee used.
func (c *bodyCtx) record(callee *il.Routine, virtual bool, loc source.Loc) {
	if callee == nil {
		return
	}
	c.r.Calls = append(c.r.Calls, il.CallSite{Callee: callee, Virtual: virtual, Loc: loc})
	c.s.useRoutine(callee)
}

// recordCtor resolves and records a constructor call on cls.
func (c *bodyCtx) recordCtor(cls *il.Class, argTypes []*il.Type, loc source.Loc) {
	if cls == nil {
		return
	}
	var ctors []*il.Routine
	for _, m := range cls.Methods {
		if m.Kind == ast.Constructor {
			ctors = append(ctors, m)
		}
	}
	if callee := pickOverload(ctors, argTypes); callee != nil {
		c.record(callee, false, loc)
	}
}

// recordDtor resolves and records a destructor call on cls.
func (c *bodyCtx) recordDtor(cls *il.Class, loc source.Loc) {
	if cls == nil {
		return
	}
	for _, m := range cls.Methods {
		if m.Kind == ast.Destructor {
			c.record(m, m.Virtual, loc)
			return
		}
	}
}

// recordInitCall handles one constructor-initializer entry: a data
// member of class type or a base class.
func (c *bodyCtx) recordInitCall(init ast.CtorInit, argTypes []*il.Type) {
	if c.class == nil {
		return
	}
	name := init.Name.Terminal().Name
	if m := c.class.FindMember(name); m != nil {
		u := m.Type.Unqualified()
		if u.Kind == il.TClass {
			c.recordCtor(u.Class, argTypes, init.Name.Loc())
		}
		return
	}
	for _, b := range c.class.Bases {
		if b.Class != nil && (b.Class.Name == name || b.Class.BaseName() == name) {
			c.recordCtor(b.Class, argTypes, init.Name.Loc())
			return
		}
	}
}

// --- statements ----------------------------------------------------------

// resolveT resolves a syntactic type under the body's bindings and
// records it in the unit's expression-type table for the interpreter.
func (c *bodyCtx) resolveT(te ast.TypeExpr) *il.Type {
	t := c.s.resolveType(te, c.b)
	c.s.unit.RecordExprType(c.r, te, t)
	return t
}

func (c *bodyCtx) walkStmt(st ast.Stmt) {
	switch st := st.(type) {
	case nil:
	case *ast.CompoundStmt:
		c.push()
		for _, inner := range st.Stmts {
			c.walkStmt(inner)
		}
		c.pop(st.Pos.End)
	case *ast.DeclStmt:
		for _, d := range st.Decls {
			c.walkLocalDecl(d)
		}
	case *ast.ExprStmt:
		c.typeOf(st.E)
	case *ast.EmptyStmt:
	case *ast.IfStmt:
		c.typeOf(st.Cond)
		c.walkStmt(st.Then)
		c.walkStmt(st.Else)
	case *ast.WhileStmt:
		c.typeOf(st.Cond)
		c.walkStmt(st.Body)
	case *ast.DoStmt:
		c.walkStmt(st.Body)
		c.typeOf(st.Cond)
	case *ast.ForStmt:
		c.push()
		c.walkStmt(st.Init)
		if st.Cond != nil {
			c.typeOf(st.Cond)
		}
		if st.Post != nil {
			c.typeOf(st.Post)
		}
		c.walkStmt(st.Body)
		c.pop(st.Pos.End)
	case *ast.ReturnStmt:
		if st.E != nil {
			c.typeOf(st.E)
		}
	case *ast.BreakStmt, *ast.ContinueStmt:
	case *ast.SwitchStmt:
		c.typeOf(st.Cond)
		for _, cs := range st.Cases {
			c.push()
			for _, inner := range cs.Stmts {
				c.walkStmt(inner)
			}
			c.pop(cs.Pos.End)
		}
	case *ast.TryStmt:
		c.walkStmt(st.Body)
		for _, h := range st.Handlers {
			c.push()
			if h.Param != nil {
				c.declare(h.Param.Name, c.resolveT(h.Param.Type))
			}
			c.walkStmt(h.Body)
			c.pop(h.Pos.End)
		}
	}
}

func (c *bodyCtx) walkLocalDecl(d ast.Decl) {
	switch d := d.(type) {
	case *ast.VarDecl:
		ty := c.resolveT(d.Type)
		c.declare(d.Name, ty)
		u := ty.Unqualified()
		switch {
		case d.HasCtorArgs:
			var argTypes []*il.Type
			for _, a := range d.CtorArgs {
				argTypes = append(argTypes, c.typeOf(a))
			}
			if u.Kind == il.TClass {
				c.recordCtor(u.Class, argTypes, d.NameLoc)
				c.trackObj(ty)
			}
		case d.Init != nil:
			c.typeOf(d.Init)
			if u.Kind == il.TClass {
				// Copy-initialization from a value of the same class:
				// the temporary's constructor call was recorded while
				// typing the initializer.
				c.trackObj(ty)
			}
		default:
			if u.Kind == il.TClass {
				c.recordCtor(u.Class, nil, d.NameLoc)
				c.trackObj(ty)
			}
		}
	case *ast.DeclGroup:
		for _, inner := range d.Decls {
			c.walkLocalDecl(inner)
		}
	case *ast.FunctionDecl:
		// Local function declaration (most vexing parse) — nothing to do.
	case *ast.TypedefDecl:
		// Local typedefs resolve against the enclosing scopes already.
		c.s.collectTypedef(d, ast.NoAccess)
	case *ast.ClassDecl, *ast.EnumDecl:
		c.s.collectDecl(d, ast.NoAccess, false)
	}
}

// --- expressions -----------------------------------------------------------

// typeOf computes the type of an expression, resolving calls and
// recording call sites as a side effect. Unresolvable constructs get
// TError and produce no record — the analysis is tolerant by design.
func (c *bodyCtx) typeOf(e ast.Expr) *il.Type {
	tt := c.s.unit.Types
	errT := tt.Builtin(il.TError)
	switch e := e.(type) {
	case nil:
		return errT
	case *ast.IntLit:
		return tt.Builtin(il.TInt)
	case *ast.FloatLit:
		return tt.Builtin(il.TDouble)
	case *ast.CharLit:
		return tt.Builtin(il.TChar)
	case *ast.BoolLit:
		return tt.Builtin(il.TBool)
	case *ast.StringLit:
		return tt.PtrTo(tt.ConstOf(tt.Builtin(il.TChar)))
	case *ast.ThisExpr:
		if c.class == nil {
			return errT
		}
		return tt.PtrTo(tt.ClassType(c.class))
	case *ast.ParenExpr:
		return c.typeOf(e.E)
	case *ast.NameExpr:
		return c.typeOfName(e)
	case *ast.UnaryExpr:
		return c.typeOfUnary(e)
	case *ast.BinaryExpr:
		return c.typeOfBinary(e)
	case *ast.CondExpr:
		c.typeOf(e.C)
		t := c.typeOf(e.T)
		c.typeOf(e.F)
		return t
	case *ast.CallExpr:
		return c.typeOfCall(e)
	case *ast.MemberExpr:
		return c.typeOfMember(e)
	case *ast.IndexExpr:
		base := c.typeOf(e.Base)
		c.typeOf(e.Index)
		u := base.Deref()
		switch u.Kind {
		case il.TPtr, il.TArray:
			return u.Elem
		case il.TClass:
			idxT := c.typeOf(e.Index)
			if callee := pickOverload(u.Class.FindMethods("operator[]"), []*il.Type{idxT}); callee != nil {
				c.record(callee, callee.Virtual, e.Pos.Begin)
				return callee.Ret
			}
		}
		return errT
	case *ast.CastExpr:
		ty := c.resolveT(e.Type)
		opT := c.typeOf(e.Operand)
		if e.Style == ast.FunctionalCast {
			u := ty.Unqualified()
			if u.Kind == il.TClass {
				c.recordCtor(u.Class, []*il.Type{opT}, e.Pos.Begin)
			}
		}
		return ty
	case *ast.ConstructExpr:
		ty := c.resolveT(e.Type)
		var argTypes []*il.Type
		for _, a := range e.Args {
			argTypes = append(argTypes, c.typeOf(a))
		}
		if u := ty.Unqualified(); u.Kind == il.TClass {
			c.recordCtor(u.Class, argTypes, e.Pos.Begin)
		}
		return ty
	case *ast.NewExpr:
		ty := c.resolveT(e.Type)
		if e.ArraySize != nil {
			c.typeOf(e.ArraySize)
		}
		var argTypes []*il.Type
		for _, a := range e.Args {
			argTypes = append(argTypes, c.typeOf(a))
		}
		if u := ty.Unqualified(); u.Kind == il.TClass && e.ArraySize == nil {
			c.recordCtor(u.Class, argTypes, e.Pos.Begin)
		}
		return tt.PtrTo(ty)
	case *ast.DeleteExpr:
		opT := c.typeOf(e.Operand)
		if u := opT.Deref(); u.Kind == il.TPtr {
			if elem := u.Elem.Unqualified(); elem.Kind == il.TClass {
				c.recordDtor(elem.Class, e.Pos.Begin)
			}
		}
		return tt.Builtin(il.TVoid)
	case *ast.SizeofExpr:
		if e.E != nil {
			c.typeOf(e.E)
		}
		if e.Type != nil {
			c.resolveT(e.Type)
		}
		return tt.Builtin(il.TULong)
	case *ast.ThrowExpr:
		if e.Operand != nil {
			c.typeOf(e.Operand)
		}
		return tt.Builtin(il.TVoid)
	default:
		return errT
	}
}

// typeOfName resolves a name used as a value: locals, parameters, data
// members (implicit this), enumerators, globals, then function names.
func (c *bodyCtx) typeOfName(e *ast.NameExpr) *il.Type {
	s := c.s
	tt := s.unit.Types
	name := e.Name.Terminal().Name
	if e.Name.IsSimple() {
		if t := c.lookupLocal(name); t != nil {
			return t
		}
		if c.class != nil {
			if m := c.class.FindMember(name); m != nil {
				return m.Type
			}
		}
		if c.b != nil {
			if v, ok := c.b[name]; ok && v.IsInt {
				return tt.Builtin(il.TInt)
			}
		}
		if _, ok := s.enumConsts[name]; ok {
			return tt.Builtin(il.TInt)
		}
		for _, ns := range s.nsChain() {
			for _, v := range ns.Vars {
				if v.Name == name {
					return v.Type
				}
			}
		}
		// Function designator.
		if cands := c.findRoutines(name); len(cands) > 0 {
			return cands[0].Signature
		}
		return tt.Builtin(il.TError)
	}
	// Qualified: Class::member, Enum::value, ns::var.
	if len(e.Name.Segs) >= 2 {
		owner := e.Name.Segs[len(e.Name.Segs)-2].Name
		if _, ok := s.lookupQualifiedConst(e.Name); ok {
			return tt.Builtin(il.TInt)
		}
		if cls := s.unit.LookupClass(owner); cls != nil {
			if m := cls.FindMember(name); m != nil {
				return m.Type
			}
		}
		var prefix ast.QualName
		prefix.Global = e.Name.Global
		prefix.Segs = e.Name.Segs[:len(e.Name.Segs)-1]
		if ns := s.lookupNamespace(prefix); ns != nil {
			for _, v := range ns.Vars {
				if v.Name == name {
					return v.Type
				}
			}
			for _, r := range ns.Routines {
				if r.Name == name {
					return r.Signature
				}
			}
		}
	}
	return tt.Builtin(il.TError)
}

func (c *bodyCtx) typeOfUnary(e *ast.UnaryExpr) *il.Type {
	tt := c.s.unit.Types
	opT := c.typeOf(e.Operand)
	u := opT.Deref()
	if u.Kind == il.TClass && u.Class != nil {
		// Overloaded unary operator on a class object.
		var opName string
		switch e.Op {
		case ast.PreInc, ast.PostInc:
			opName = "operator++"
		case ast.PreDec, ast.PostDec:
			opName = "operator--"
		case ast.Deref:
			opName = "operator*"
		case ast.LogNot:
			opName = "operator!"
		case ast.Neg:
			opName = "operator-"
		}
		if opName != "" {
			if callee := pickOverload(u.Class.FindMethods(opName), nil); callee != nil {
				c.record(callee, callee.Virtual, e.Pos)
				return callee.Ret
			}
		}
	}
	switch e.Op {
	case ast.LogNot:
		return tt.Builtin(il.TBool)
	case ast.Deref:
		if u.Kind == il.TPtr || u.Kind == il.TArray {
			return u.Elem
		}
		return tt.Builtin(il.TError)
	case ast.AddrOf:
		return tt.PtrTo(opT.Deref())
	default:
		return opT.Deref()
	}
}

func (c *bodyCtx) typeOfBinary(e *ast.BinaryExpr) *il.Type {
	tt := c.s.unit.Types
	lt := c.typeOf(e.L)
	rt := c.typeOf(e.R)
	lu, ru := lt.Deref(), rt.Deref()

	// Overloaded operators when either operand is of class type.
	if lu.Kind == il.TClass || ru.Kind == il.TClass {
		opName := "operator" + e.Op.String()
		if e.Op == ast.Comma {
			opName = ""
		}
		if opName != "" {
			if lu.Kind == il.TClass && lu.Class != nil {
				if callee := pickOverload(lu.Class.FindMethods(opName), []*il.Type{rt}); callee != nil {
					c.record(callee, callee.Virtual, e.Pos)
					return callee.Ret
				}
			}
			if callee := pickOverload(c.findRoutines(opName), []*il.Type{lt, rt}); callee != nil {
				c.record(callee, false, e.Pos)
				return callee.Ret
			}
		}
	}

	switch {
	case e.Op.IsAssign():
		return lt
	case e.Op == ast.Comma:
		return rt
	case e.Op == ast.LAnd || e.Op == ast.LOr ||
		e.Op == ast.EqOp || e.Op == ast.NeOp || e.Op == ast.LtOp ||
		e.Op == ast.GtOp || e.Op == ast.LeOp || e.Op == ast.GeOp:
		return tt.Builtin(il.TBool)
	default:
		// Usual arithmetic conversions, simplified.
		if lu.Kind.IsFloat() {
			return lu
		}
		if ru.Kind.IsFloat() {
			return ru
		}
		if lu.Kind == il.TPtr || lu.Kind == il.TArray {
			return lu
		}
		if ru.Kind == il.TPtr || ru.Kind == il.TArray {
			return ru
		}
		if lu.Kind.IsInteger() {
			return lu
		}
		return ru
	}
}

func (c *bodyCtx) typeOfMember(e *ast.MemberExpr) *il.Type {
	tt := c.s.unit.Types
	baseT := c.typeOf(e.Base)
	u := baseT.Deref()
	if e.Arrow {
		if u.Kind != il.TPtr {
			return tt.Builtin(il.TError)
		}
		u = u.Elem.Unqualified()
	}
	if u.Kind != il.TClass || u.Class == nil {
		return tt.Builtin(il.TError)
	}
	name := e.Name.Terminal().Name
	if m := u.Class.FindMember(name); m != nil {
		return m.Type
	}
	if ms := u.Class.FindMethods(name); len(ms) > 0 {
		return ms[0].Signature
	}
	return tt.Builtin(il.TError)
}

// typeOfCall resolves a call expression, records the call site, and
// returns the callee's return type.
func (c *bodyCtx) typeOfCall(e *ast.CallExpr) *il.Type {
	s := c.s
	tt := s.unit.Types
	var argTypes []*il.Type
	for _, a := range e.Args {
		argTypes = append(argTypes, c.typeOf(a))
	}

	switch fn := e.Fn.(type) {
	case *ast.NameExpr:
		name := fn.Name.Terminal().Name
		if fn.Name.IsSimple() || (len(fn.Name.Segs) == 1 && fn.Name.Segs[0].HasArgs) {
			// Explicit function-template arguments: f<int>(x).
			if fn.Name.Segs[0].HasArgs {
				if tmpl := c.findFuncTemplate(name); tmpl != nil {
					args := s.resolveTemplateArgs(fn.Name.Segs[0].Args, c.b)
					b := s.bindParams(tmpl.Params, args)
					callee := s.instantiateFunctionTemplate(tmpl, b, fn.Name.Loc())
					c.record(callee, false, fn.Name.Loc())
					return callee.Ret
				}
			}
			// Member functions of the enclosing class.
			if c.class != nil {
				if callee := pickOverload(c.class.FindMethods(name), argTypes); callee != nil {
					c.record(callee, callee.Virtual, fn.Name.Loc())
					return callee.Ret
				}
			}
			// Free functions.
			if callee := pickOverload(c.findRoutines(name), argTypes); callee != nil {
				c.record(callee, false, fn.Name.Loc())
				return callee.Ret
			}
			// Function templates via deduction.
			if tmpl := c.findFuncTemplate(name); tmpl != nil {
				if b := s.deduceFunctionTemplate(tmpl, argTypes); b != nil {
					callee := s.instantiateFunctionTemplate(tmpl, b, fn.Name.Loc())
					c.record(callee, false, fn.Name.Loc())
					return callee.Ret
				}
			}
			// A local variable of class type being called: operator().
			if t := c.lookupLocal(name); t != nil {
				if u := t.Deref(); u.Kind == il.TClass && u.Class != nil {
					if callee := pickOverload(u.Class.FindMethods("operator()"), argTypes); callee != nil {
						c.record(callee, callee.Virtual, fn.Name.Loc())
						return callee.Ret
					}
				}
			}
			return tt.Builtin(il.TError)
		}
		// Qualified call: Class::f(...) or ns::f(...).
		owner := fn.Name.Segs[len(fn.Name.Segs)-2]
		ownerName := owner.Name
		if owner.HasArgs {
			ownerName = instantiatedName(ownerName, s.resolveTemplateArgs(owner.Args, c.b))
		}
		if cls := s.unit.LookupClass(ownerName); cls != nil {
			if callee := pickOverload(cls.FindMethods(name), argTypes); callee != nil {
				// Explicitly qualified calls are never virtual dispatch.
				c.record(callee, false, fn.Name.Loc())
				return callee.Ret
			}
		}
		var prefix ast.QualName
		prefix.Global = fn.Name.Global
		prefix.Segs = fn.Name.Segs[:len(fn.Name.Segs)-1]
		if ns := s.lookupNamespace(prefix); ns != nil {
			var cands []*il.Routine
			for _, r := range ns.Routines {
				if r.Name == name {
					cands = append(cands, r)
				}
			}
			if callee := pickOverload(cands, argTypes); callee != nil {
				c.record(callee, false, fn.Name.Loc())
				return callee.Ret
			}
		}
		return tt.Builtin(il.TError)

	case *ast.MemberExpr:
		baseT := c.typeOf(fn.Base)
		u := baseT.Deref()
		viaPtr := false
		if fn.Arrow {
			if u.Kind == il.TPtr {
				u = u.Elem.Unqualified()
				viaPtr = true
			} else {
				return tt.Builtin(il.TError)
			}
		}
		if u.Kind != il.TClass || u.Class == nil {
			return tt.Builtin(il.TError)
		}
		name := fn.Name.Terminal().Name
		// Member function templates with explicit or deduced args.
		for _, mt := range u.Class.Templates {
			if mt.Name == name {
				var b bindings
				if fn.Name.Terminal().HasArgs {
					args := s.resolveTemplateArgs(fn.Name.Terminal().Args, c.b)
					b = s.bindParams(mt.Params, args)
				} else {
					b = s.deduceFunctionTemplate(mt, argTypes)
				}
				if b != nil {
					callee := s.instantiateMemberTemplate(u.Class, mt, b, fn.Pos)
					c.record(callee, false, fn.Pos)
					if callee != nil {
						return callee.Ret
					}
					return tt.Builtin(il.TError)
				}
			}
		}
		if callee := pickOverload(u.Class.FindMethods(name), argTypes); callee != nil {
			c.record(callee, callee.Virtual && (viaPtr || isRefType(baseT)), fn.Pos)
			return callee.Ret
		}
		return tt.Builtin(il.TError)

	default:
		// Calling the result of an arbitrary expression: operator() on
		// class values; otherwise untyped.
		fnT := c.typeOf(e.Fn)
		if u := fnT.Deref(); u.Kind == il.TClass && u.Class != nil {
			if callee := pickOverload(u.Class.FindMethods("operator()"), argTypes); callee != nil {
				c.record(callee, callee.Virtual, e.Pos.Begin)
				return callee.Ret
			}
		}
		if u := fnT.Deref(); u.Kind == il.TFunc {
			return u.Ret
		}
		return tt.Builtin(il.TError)
	}
}

func isRefType(t *il.Type) bool {
	return t.Unqualified().Kind == il.TRef
}

// findRoutines collects the free-function overload set for name across
// the namespace chain.
func (c *bodyCtx) findRoutines(name string) []*il.Routine {
	var out []*il.Routine
	for _, ns := range c.s.nsChain() {
		for _, r := range ns.Routines {
			if r.Name == name {
				out = append(out, r)
			}
		}
	}
	return out
}

// findFuncTemplate finds a free function template by name.
func (c *bodyCtx) findFuncTemplate(name string) *il.Template {
	for _, ns := range c.s.nsChain() {
		if t := c.s.templateIn(ns, name, il.TemplFunc); t != nil {
			return t
		}
	}
	return nil
}

// instantiateMemberTemplate instantiates a member function template of
// class cls under bindings b.
func (s *Sema) instantiateMemberTemplate(cls *il.Class, tmpl *il.Template, b bindings, loc source.Loc) *il.Routine {
	var args []il.TemplateArgValue
	for _, p := range tmpl.Params {
		args = append(args, b[p.Name])
	}
	name := instantiatedName(tmpl.Name, args)
	for _, r := range tmpl.RoutineInsts {
		if r.Name == name && r.Class == cls {
			return r
		}
	}
	// Merge enclosing class bindings with the member's own.
	merged := bindings{}
	for _, m := range cls.Methods {
		if m.Bindings != nil {
			for k, v := range m.Bindings {
				merged[k] = v
			}
			break
		}
	}
	for k, v := range b {
		merged[k] = v
	}
	r := s.buildRoutine(tmpl.FuncDecl, cls, nil, tmpl.Access, "C++", merged)
	r.Name = name
	r.IsInstantiation = true
	r.Origin = tmpl
	tmpl.RoutineInsts = append(tmpl.RoutineInsts, r)
	s.useRoutine(r)
	return r
}

// pickOverload selects the best candidate for the given argument types:
// arity feasibility first, then a simple conversion-rank score. Ties go
// to the earliest declaration, which matches the subset's needs.
func pickOverload(cands []*il.Routine, argTypes []*il.Type) *il.Routine {
	var best *il.Routine
	bestScore := -1
	for _, cand := range cands {
		minArgs := 0
		for _, p := range cand.Params {
			if p.Default == nil {
				minArgs++
			}
		}
		variadic := cand.Signature != nil && cand.Signature.Variadic
		if len(argTypes) < minArgs || (!variadic && len(argTypes) > len(cand.Params)) {
			continue
		}
		score := 0
		ok := true
		for i, at := range argTypes {
			if i >= len(cand.Params) {
				break // variadic tail
			}
			score += convRank(cand.Params[i].Type, at)
		}
		if !ok {
			continue
		}
		if score > bestScore {
			bestScore = score
			best = cand
		}
	}
	return best
}

// convRank scores how well an argument type matches a parameter type.
func convRank(param, arg *il.Type) int {
	if param == nil || arg == nil {
		return 0
	}
	if param == arg {
		return 4
	}
	pd, ad := param.Deref(), arg.Deref()
	if pd == ad {
		return 3
	}
	if pd.Kind == il.TClass && ad.Kind == il.TClass && ad.Class != nil && pd.Class != nil {
		if ad.Class.DerivesFrom(pd.Class) {
			return 2
		}
		return 0
	}
	if pd.Kind.IsArithmetic() && ad.Kind.IsArithmetic() {
		if pd.Kind == ad.Kind {
			return 3
		}
		return 1
	}
	if (pd.Kind == il.TPtr || pd.Kind == il.TArray) && (ad.Kind == il.TPtr || ad.Kind == il.TArray) {
		return 1
	}
	return 0
}
