package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// Snaplint cross-checks the checkpoint seam: for every type with a
// snapshot method (a niladic Snapshot, or AppendState taking the byte
// string it appends to) and a restore method (Restore or LoadState,
// taking one argument), every struct field mutated by a state-evolving
// method must be referenced by both (directly or through another method
// of the same type). A field written in the hot
// path but absent from the checkpoint is exactly the silent-desync class
// that corrupts .ckpt reuse: the checkpointed run diverges bit-for-bit
// from the straight-through run only under the profiles that exercise
// the forgotten field.
//
// Deliberately derived or scratch fields are annotated at the field:
//
//	//bebop:nosnap <reason>
//
// Methods named Reset*, init*/Init* are treated as (re)construction, not
// state evolution: a field only they write is configuration, not state.
var Snaplint = &Analyzer{
	Name:  "snaplint",
	Doc:   "every hot-path-written field of a snapshottable type must be covered by Snapshot and Restore (or carry //bebop:nosnap <reason>)",
	Match: func(pkgPath string) bool { return strings.HasPrefix(pkgPath, "bebop/") || pkgPath == "bebop" },
	Run:   runSnaplint,
}

// snapshotNames and restoreNames map the method names of the checkpoint
// pair to their parameter counts.
var snapshotNames = map[string]int{"Snapshot": 0, "AppendState": 1}
var restoreNames = map[string]int{"Restore": 1, "LoadState": 1}

// snapType aggregates everything snaplint learns about one struct type.
type snapType struct {
	name     string
	st       *ast.StructType
	methods  map[string]*methodInfo // by method name
	snapshot []string               // snapshot-family method names present
	restore  []string               // restore-family method names present
}

type methodInfo struct {
	decl *ast.FuncDecl
	// fields of the receiver referenced (read or write) in the body
	refs map[string]bool
	// methods of the same type invoked on the receiver
	calls map[string]bool
	// whole-receiver copy (*recv) appears: every field is covered
	wholeCopy bool
	// fields written (assignment, inc/dec, copy(), append target)
	writes map[string]ast.Node
}

func runSnaplint(pass *Pass) error {
	structs := map[string]*snapType{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || ts.Assign.IsValid() {
					continue
				}
				if st, ok := ts.Type.(*ast.StructType); ok {
					structs[ts.Name.Name] = &snapType{name: ts.Name.Name, st: st, methods: map[string]*methodInfo{}}
				}
			}
		}
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || len(fd.Recv.List) == 0 || fd.Body == nil {
				continue
			}
			tname := receiverTypeName(fd)
			st, ok := structs[tname]
			if !ok {
				continue
			}
			mi := analyzeMethod(pass, fd)
			st.methods[fd.Name.Name] = mi
			nparams := fd.Type.Params.NumFields()
			if n, ok := snapshotNames[fd.Name.Name]; ok && nparams == n {
				st.snapshot = append(st.snapshot, fd.Name.Name)
			}
			if n, ok := restoreNames[fd.Name.Name]; ok && nparams == n {
				st.restore = append(st.restore, fd.Name.Name)
			}
		}
	}

	names := make([]string, 0, len(structs))
	for n := range structs {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		st := structs[n]
		if len(st.snapshot) == 0 || len(st.restore) == 0 {
			continue
		}
		checkCoverage(pass, st)
	}
	return nil
}

// receiverTypeName returns the base type name of a method receiver.
func receiverTypeName(fd *ast.FuncDecl) string {
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// analyzeMethod records field references, field writes and same-type
// method calls made through the receiver.
func analyzeMethod(pass *Pass, fd *ast.FuncDecl) *methodInfo {
	mi := &methodInfo{refs: map[string]bool{}, calls: map[string]bool{}, writes: map[string]ast.Node{}}
	recvIdent := receiverIdent(fd)
	if recvIdent == nil {
		return mi
	}
	recvObj := pass.TypesInfo.Defs[recvIdent]

	isRecv := func(e ast.Expr) bool {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
			case *ast.StarExpr:
				e = x.X
			default:
				id, ok := e.(*ast.Ident)
				return ok && recvObj != nil && pass.TypesInfo.ObjectOf(id) == recvObj
			}
		}
	}
	// fieldOf returns the receiver field an expression reaches through,
	// peeling any outer selectors/indexes: p.f, p.f[i], p.f.g all reach f.
	var fieldOf func(e ast.Expr) string
	fieldOf = func(e ast.Expr) string {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if isRecv(x.X) {
				return x.Sel.Name
			}
			return fieldOf(x.X)
		case *ast.IndexExpr:
			return fieldOf(x.X)
		case *ast.ParenExpr:
			return fieldOf(x.X)
		case *ast.StarExpr:
			return fieldOf(x.X)
		case *ast.SliceExpr:
			return fieldOf(x.X)
		}
		return ""
	}
	markWrite := func(e ast.Expr, at ast.Node) {
		if f := fieldOf(e); f != "" {
			if _, dup := mi.writes[f]; !dup {
				mi.writes[f] = at
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if isRecv(n.X) {
				mi.refs[n.Sel.Name] = true
			}
		case *ast.StarExpr:
			if isRecv(n.X) {
				mi.wholeCopy = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				markWrite(lhs, n)
			}
		case *ast.IncDecStmt:
			markWrite(n.X, n)
		case *ast.CallExpr:
			// recv.m(...) — same-type method call.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && isRecv(sel.X) {
				mi.calls[sel.Sel.Name] = true
			}
			// copy(recv.f, ...) and append(recv.f, ...) mutate/rebuild contents.
			if id, ok := n.Fun.(*ast.Ident); ok && (id.Name == "copy" || id.Name == "append") && len(n.Args) > 0 {
				if _, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin); isBuiltin && id.Name == "copy" {
					markWrite(n.Args[0], n)
				}
			}
		}
		return true
	})
	return mi
}

func receiverIdent(fd *ast.FuncDecl) *ast.Ident {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return nil
	}
	return names[0]
}

// closureRefs unions a method's field references with those of every
// same-type method transitively reachable from it.
func closureRefs(st *snapType, roots []string) (map[string]bool, bool) {
	refs := map[string]bool{}
	whole := false
	seen := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		mi, ok := st.methods[name]
		if !ok {
			return
		}
		whole = whole || mi.wholeCopy
		for f := range mi.refs {
			refs[f] = true
		}
		for c := range mi.calls {
			visit(c)
		}
	}
	for _, r := range roots {
		visit(r)
	}
	return refs, whole
}

// isConstructionMethod reports whether writes in this method are
// (re)initialization rather than state evolution.
func isConstructionMethod(name string) bool {
	return strings.HasPrefix(name, "Reset") ||
		strings.HasPrefix(name, "Init") || strings.HasPrefix(name, "init") ||
		strings.HasPrefix(name, "Register") || strings.HasPrefix(name, "register")
}

func checkCoverage(pass *Pass, st *snapType) {
	snapRefs, snapWhole := closureRefs(st, st.snapshot)
	restRefs, restWhole := closureRefs(st, st.restore)

	// Union of fields written by state-evolving methods, with a witness.
	written := map[string]struct {
		method string
		at     ast.Node
	}{}
	methodNames := make([]string, 0, len(st.methods))
	for n := range st.methods {
		methodNames = append(methodNames, n)
	}
	sort.Strings(methodNames)
	for _, name := range methodNames {
		_, snap := snapshotNames[name]
		_, rest := restoreNames[name]
		if snap || rest || isConstructionMethod(name) {
			continue
		}
		for f, at := range st.methods[name].writes {
			if _, ok := written[f]; !ok {
				written[f] = struct {
					method string
					at     ast.Node
				}{name, at}
			}
		}
	}

	for _, fieldGroup := range st.st.Fields.List {
		if nosnapExempt(fieldGroup) {
			continue
		}
		for _, nameIdent := range fieldGroup.Names {
			fname := nameIdent.Name
			if fname == "_" {
				continue
			}
			w, isWritten := written[fname]
			if !isWritten {
				continue
			}
			missSnap := !snapWhole && !snapRefs[fname]
			missRest := !restWhole && !restRefs[fname]
			if !missSnap && !missRest {
				continue
			}
			var miss []string
			if missSnap {
				miss = append(miss, fmt.Sprintf("(%s).%s", st.name, st.snapshot[0]))
			}
			if missRest {
				miss = append(miss, fmt.Sprintf("(%s).%s", st.name, st.restore[0]))
			}
			pass.Reportf(nameIdent.Pos(),
				"field %s.%s is written by (%s).%s but missing from %s; un-snapshotted state silently desynchronizes checkpointed runs — snapshot it or annotate //bebop:nosnap <reason>",
				st.name, fname, st.name, w.method, strings.Join(miss, " and "))
		}
	}
}

const nosnapPrefix = "//bebop:nosnap"

// nosnapExempt reports whether a field declaration carries a justified
// //bebop:nosnap directive in its doc or line comment.
func nosnapExempt(f *ast.Field) bool {
	for _, cg := range []*ast.CommentGroup{f.Doc, f.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, nosnapPrefix) &&
				strings.TrimSpace(strings.TrimPrefix(c.Text, nosnapPrefix)) != "" {
				return true
			}
		}
	}
	return false
}
