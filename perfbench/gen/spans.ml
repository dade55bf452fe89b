(* In-memory span store. A span is (kind, id, start_ns, dur_ns); the id
   is the request's req_id for client spans and the first req_id of the
   batch for replay spans. Spans go into a fixed ring (the newest
   [capacity] survive) and are written out once, when the run ends, so
   recording costs four int stores and never allocates. *)

type t = {
  names : string array;
  cap : int;
  buf : int array;  (* 4 ints per span *)
  mutable n : int;  (* spans recorded, including overwritten ones *)
}

let create ~names ~capacity =
  { names; cap = capacity; buf = Array.make (4 * capacity) 0; n = 0 }

let record t ~kind ~id ~start ~stop =
  let o = 4 * (t.n mod t.cap) in
  t.buf.(o) <- kind;
  t.buf.(o + 1) <- id;
  t.buf.(o + 2) <- start;
  t.buf.(o + 3) <- stop - start;
  t.n <- t.n + 1

let recorded t = t.n

(* JSON: the kind names once, then one [kind, id, start_ns, dur_ns] row
   per kept span, oldest first, starts relative to the first kept span. *)
let write t path =
  let oc = open_out path in
  let kept = min t.n t.cap in
  let first = t.n - kept in
  let t0 = if kept > 0 then t.buf.((4 * (first mod t.cap)) + 2) else 0 in
  Printf.fprintf oc "{\"schema\": \"perfbench-spans/1\", \"recorded\": %d, \"kept\": %d,\n \"kinds\": [%s],\n \"spans\": [\n"
    t.n kept
    (String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%S") t.names)));
  for i = first to t.n - 1 do
    let o = 4 * (i mod t.cap) in
    Printf.fprintf oc "  [%d, %d, %d, %d]%s\n" t.buf.(o) t.buf.(o + 1)
      (t.buf.(o + 2) - t0) t.buf.(o + 3)
      (if i < t.n - 1 then "," else "")
  done;
  output_string oc " ]}\n";
  close_out oc
