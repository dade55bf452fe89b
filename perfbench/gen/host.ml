(* OS calls from os_stubs.c. *)

(* CLOCK_MONOTONIC in nanoseconds, as an immediate int. *)
external now_ns : unit -> int = "perfbench_now_ns" [@@noalloc]

(* Pin this process to the k-th CPU allowed at start-up; 0 or -1. *)
external pin_cpu : int -> int = "perfbench_pin_cpu"

(* Move this process to SCHED_IDLE; 0 or -1. *)
external sched_idle : unit -> int = "perfbench_sched_idle"
