module mind/benchmark

go 1.22

require mind v0.0.0

replace mind => ../
