package corpus

import "fmt"

// IncludeDiamondApp is a hostile input for layout linking: layout l00
// includes l01 twice, l01 includes l02 twice, and so on down to the leaf
// l<depth>, so the linked l00 would hold 2^(depth+1)-1 views while the
// XML grows only linearly (about 2 KB at depth 22). One activity inflates
// l00.
func IncludeDiamondApp(depth int) (sources, layouts map[string]string) {
	layouts = map[string]string{}
	for i := 0; i < depth; i++ {
		inc := fmt.Sprintf(`<include layout="@layout/l%02d"/>`, i+1)
		layouts[fmt.Sprintf("l%02d", i)] = "<LinearLayout>" + inc + inc + "</LinearLayout>"
	}
	layouts[fmt.Sprintf("l%02d", depth)] = "<TextView/>"
	sources = map[string]string{"diamond.alite": "class Main extends Activity {\n" +
		"\tvoid onCreate() { this.setContentView(R.layout.l00); }\n}\n"}
	return sources, layouts
}
