module mcloud/benchmark

go 1.22

require mcloud v0.0.0

replace mcloud => ../
