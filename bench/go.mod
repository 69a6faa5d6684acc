module vsgm/bench

go 1.22

require vsgm v0.0.0

replace vsgm => ../
