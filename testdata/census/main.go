// Command censusfixture is the program that reads package fix.
package main

import "censusfixture/internal/fix"

func size(s fix.Sizer) int { return s.Len() }

func main() {
	var sq fix.Square
	_ = sq
	_ = fix.Circle{}.Area()
	var d any = &fix.Disk{}
	if f, ok := d.(interface{ SetFault(bool) }); ok {
		f.SetFault(true)
	}
	_ = size(&fix.Disk{})
}
