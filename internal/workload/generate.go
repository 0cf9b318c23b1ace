package workload

import (
	"fmt"
	"strings"
)

// GenClasses synthesizes a translation unit with n classes, each with
// m methods; method j of class i calls method j of class i-1, giving a
// known class count and call-graph shape for frontend benchmarks (B1).
func GenClasses(n, m int) string {
	var sb strings.Builder
	sb.WriteString("// synthetic translation unit\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "class C%d {\npublic:\n", i)
		fmt.Fprintf(&sb, "    C%d() : state(0) { }\n", i)
		for j := 0; j < m; j++ {
			if i == 0 {
				fmt.Fprintf(&sb, "    int m%d(int x) { return state + x + %d; }\n", j, j)
			} else {
				fmt.Fprintf(&sb, "    int m%d(int x) { C%d prev; return prev.m%d(x) + %d; }\n",
					j, i-1, j, j)
			}
		}
		sb.WriteString("private:\n    int state;\n};\n\n")
	}
	fmt.Fprintf(&sb, "int main() {\n    C%d top;\n    int s = 0;\n", n-1)
	for j := 0; j < m; j++ {
		fmt.Fprintf(&sb, "    s += top.m%d(%d);\n", j, j)
	}
	sb.WriteString("    return s;\n}\n")
	return sb.String()
}

// GenTemplateFanout synthesizes a class template with many members and
// k distinct instantiations, each using `used` of the members — the
// workload for the B2 used-vs-eager instantiation benchmark.
func GenTemplateFanout(members, k, used int) string {
	var sb strings.Builder
	sb.WriteString("template <class T>\nclass Fan {\npublic:\n")
	for j := 0; j < members; j++ {
		fmt.Fprintf(&sb, "    T f%d(T x) { return x + %d; }\n", j, j)
	}
	sb.WriteString("};\n\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "typedef int Alias%d;\n", i)
	}
	sb.WriteString("int main() {\n    int s = 0;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "    { Fan<Alias%d> fan%d;\n", i, i)
		for j := 0; j < used && j < members; j++ {
			fmt.Fprintf(&sb, "      s += fan%d.f%d(%d);\n", i, j, i)
		}
		sb.WriteString("    }\n")
	}
	sb.WriteString("    return s;\n}\n")
	return sb.String()
}

// GenDistinctInstantiations synthesizes k genuinely distinct
// instantiations of one template (distinct non-type arguments), for
// merge/dedup benchmarks.
func GenDistinctInstantiations(k int) string {
	var sb strings.Builder
	sb.WriteString("template <class T, int N>\nclass Slot {\npublic:\n")
	sb.WriteString("    int capacity() const { return N; }\n")
	sb.WriteString("    T value;\n};\n\nint main() {\n    int s = 0;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "    { Slot<int, %d> slot%d; s += slot%d.capacity(); }\n", i+1, i, i)
	}
	sb.WriteString("    return s;\n}\n")
	return sb.String()
}

// GenManyTemplates synthesizes k distinct class templates, each
// instantiated once — the workload that stresses sema's template-name
// lookup and the IL Analyzer's template-origin location match, and
// compares that match with the direct-ID mode.
func GenManyTemplates(k int) string {
	var sb strings.Builder
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "template <class T> class T%d { public: T v; int tag() { return %d; } };\n", i, i)
	}
	sb.WriteString("int main() {\n    int s = 0;\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&sb, "    { T%d<int> t%d; s += t%d.tag(); }\n", i, i, i)
	}
	sb.WriteString("    return s;\n}\n")
	return sb.String()
}

// GenCallChain synthesizes a call chain of the given depth with the
// given fanout at each level, for call-graph traversal benchmarks (B5).
func GenCallChain(depth, fanout int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "int leaf(int x) { return x + 1; }\n")
	for d := 1; d <= depth; d++ {
		fmt.Fprintf(&sb, "int level%d(int x) {\n    int s = x;\n", d)
		for f := 0; f < fanout; f++ {
			if d == 1 {
				fmt.Fprintf(&sb, "    s += leaf(s);\n")
			} else {
				fmt.Fprintf(&sb, "    s += level%d(s);\n", d-1)
			}
		}
		sb.WriteString("    return s;\n}\n")
	}
	fmt.Fprintf(&sb, "int main() { return level%d(1); }\n", depth)
	return sb.String()
}

// GenLayeredLib synthesizes a layered header library: depth headers
// layer0.h .. layer<depth-1>.h form a linear include chain, and each
// layer defines width classes inheriting from the same-index class one
// layer down, overriding its virtual methods. The returned app
// translation unit includes only the top layer and exercises the top
// classes from main. The shape — deep include closures and deep
// virtual hierarchies — is the expensive case for include-closure and
// override analysis, and mirrors layered template libraries.
// It returns the file set (including "app.cpp") and the main file
// name.
func GenLayeredLib(depth, width, methods int) (map[string]string, string) {
	files := make(map[string]string, depth+1)
	for d := 0; d < depth; d++ {
		var sb strings.Builder
		fmt.Fprintf(&sb, "#ifndef LAYER%d_H\n#define LAYER%d_H\n", d, d)
		if d > 0 {
			fmt.Fprintf(&sb, "#include \"layer%d.h\"\n", d-1)
		}
		for w := 0; w < width; w++ {
			if d == 0 {
				fmt.Fprintf(&sb, "class L0C%d {\npublic:\n    virtual ~L0C%d() { }\n", w, w)
			} else {
				fmt.Fprintf(&sb, "class L%dC%d : public L%dC%d {\npublic:\n", d, w, d-1, w)
			}
			for m := 0; m < methods; m++ {
				fmt.Fprintf(&sb, "    virtual int op%d(int x) { return x + %d; }\n", m, d+m)
			}
			sb.WriteString("};\n")
		}
		sb.WriteString("#endif\n")
		files[fmt.Sprintf("layer%d.h", d)] = sb.String()
	}
	var app strings.Builder
	fmt.Fprintf(&app, "#include \"layer%d.h\"\n", depth-1)
	app.WriteString("int main() {\n    int s = 0;\n")
	for w := 0; w < width; w++ {
		fmt.Fprintf(&app, "    { L%dC%d o;", depth-1, w)
		for m := 0; m < methods; m++ {
			fmt.Fprintf(&app, " s += o.op%d(%d);", m, m)
		}
		app.WriteString(" }\n")
	}
	app.WriteString("    return s;\n}\n")
	files["app.cpp"] = app.String()
	return files, "app.cpp"
}

// GenSharedHeaderUnits synthesizes m translation units all including
// one header that defines a class template, each unit instantiating
// the same and some distinct instantiations — the pdbmerge workload
// (B4). It returns (header, units).
func GenSharedHeaderUnits(m, sharedInsts, uniqueInsts int) (string, []string) {
	var hdr strings.Builder
	hdr.WriteString("#ifndef SHARED_H\n#define SHARED_H\n")
	hdr.WriteString("template <class T, int N>\nclass Shared {\npublic:\n")
	hdr.WriteString("    int cap() const { return N; }\n    T v;\n};\n")
	hdr.WriteString("#endif\n")

	units := make([]string, 0, m)
	for u := 0; u < m; u++ {
		var sb strings.Builder
		sb.WriteString("#include \"shared.h\"\n")
		fmt.Fprintf(&sb, "int unit%d() {\n    int s = 0;\n", u)
		for i := 0; i < sharedInsts; i++ {
			fmt.Fprintf(&sb, "    { Shared<int, %d> a; s += a.cap(); }\n", i+1)
		}
		for i := 0; i < uniqueInsts; i++ {
			fmt.Fprintf(&sb, "    { Shared<double, %d> b; s += b.cap(); }\n", 1000+u*uniqueInsts+i)
		}
		sb.WriteString("    return s;\n}\n")
		units = append(units, sb.String())
	}
	return hdr.String(), units
}

// GenMergeUnits synthesizes m translation units for the pdbio merge
// benchmarks: all units share a header of template instantiations
// (collapsed by the merge) and each unit additionally defines
// localClasses unit-local classes with distinct names (so the merged
// database keeps growing with m and every per-unit PDB is sizable).
// It returns (header, units); the header file is named "shared.h".
func GenMergeUnits(m, sharedInsts, localClasses int) (string, []string) {
	hdr, units := GenSharedHeaderUnits(m, sharedInsts, 2)
	for u := range units {
		var sb strings.Builder
		sb.WriteString(units[u])
		for i := 0; i < localClasses; i++ {
			fmt.Fprintf(&sb, "class U%dL%d {\npublic:\n", u, i)
			fmt.Fprintf(&sb, "    U%dL%d() : n(%d) { }\n", u, i, i)
			sb.WriteString("    int get() const { return n; }\n")
			sb.WriteString("    int twice() const { return n * 2; }\n")
			sb.WriteString("private:\n    int n;\n};\n")
		}
		fmt.Fprintf(&sb, "int local%d() {\n    int s = 0;\n", u)
		for i := 0; i < localClasses; i++ {
			fmt.Fprintf(&sb, "    { U%dL%d x; s += x.get() + x.twice(); }\n", u, i)
		}
		sb.WriteString("    return s;\n}\n")
		units[u] = sb.String()
	}
	return hdr, units
}
