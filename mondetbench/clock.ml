(* CLOCK_MONOTONIC in nanoseconds; allocation-free. *)
external now_ns : unit -> (int[@untagged])
  = "mondetbench_now_ns_byte" "mondetbench_now_ns"
[@@noalloc]

let seconds_since t0 = float_of_int (now_ns () - t0) /. 1e9
