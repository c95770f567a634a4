module apcache/benchmark

go 1.24

require apcache v0.0.0

replace apcache => ../
