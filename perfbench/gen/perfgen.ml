(* perfgen: the benchmark's measuring program (driven by ../run.py).

     perfgen serve  --workload W --seed N --seconds S --server EXE
                    --dir DIR --out FILE [--setups K] [--trace-spans FILE]
     perfgen replay --workload W --seed N --seconds S --out FILE
                    [--trace-spans FILE]
     perfgen repro  --out FILE --render FILE [--trace-spans FILE]
     perfgen info
     perfgen calib --blocks N

   serve   spawns riommu-serve --listen --domains 1 on a unix socket and
           premaps the working set (set-up, repeated K times with a fresh
           server each); after the middle set-up it drives the workload
           closed- or open-loop for S seconds and reports the client-side
           view plus the server's CPU and peak RSS.
   replay  drives the same generator through the service's own
           Conn/Dispatch/Shard/Wire/Readiness modules in-process, over
           a socketpair, timing each call: the per-layer view.
   repro   runs every registry experiment once through its public
           runner and writes the rendered tables to --render.
   calib   times N blocks of a fixed CPU-bound loop: the host's speed.

   Every mode writes one JSON object to --out; run.py turns those into
   the benchmark's metrics and checks the accounting. *)

module Wire = Rio_serve_net.Wire
module Conn = Rio_serve_net.Conn
module Dispatch = Rio_serve_net.Dispatch
module Readiness = Rio_serve_net.Readiness
module Shard = Rio_serve.Shard
module M = Model

let now = Host.now_ns
let sec_ns s = int_of_float (s *. 1e9)
let json_floats l = "[" ^ String.concat ", " (List.map (Printf.sprintf "%.9g") l) ^ "]"

let json_strings l =
  "[" ^ String.concat ", " (List.map (fun s -> Printf.sprintf "%S" s) l) ^ "]"

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* Peak resident set (VmHWM) of a process, in kB. *)
let vm_hwm_kb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Fun.id
    | _ -> go ()
    | exception End_of_file -> 0
  in
  let v = go () in
  close_in ic;
  v

(* utime + stime of [pid] in clock ticks (USER_HZ = 100 on Linux). *)
let cpu_ticks pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  let l = input_line ic in
  close_in ic;
  let rest = String.sub l (String.rindex l ')' + 2) (String.length l - String.rindex l ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' rest) in
  (* fields after the command: state is index 0, utime 11, stime 12 *)
  int_of_string f.(11) + int_of_string f.(12)

let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* {1 serve: riommu-serve over a unix socket} *)

type server = { pid : int; sock : string; stats : string }

(* Children still running — servers, and the idle loop below; all are
   killed and reaped at exit, so a run that fails midway leaves none. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* A SCHED_IDLE busy loop on the server's CPU: it runs only when the
   server does not, so the server's vCPU never halts. Waking a halted
   vCPU goes through the hypervisor and costs tens of microseconds,
   more when the host is busy; with the loop, a request that finds the
   server asleep wakes it with an in-guest reschedule. This takes the
   host's idle-exit latency out of the measured latency, like booting
   the guest with idle=poll. The loop also ends when perfgen dies
   without running its at_exit. *)
let start_idle_loop () =
  let parent = Unix.getpid () in
  match Unix.fork () with
  | 0 ->
      ignore (Host.pin_cpu 0);
      ignore (Host.sched_idle ());
      (* spin in user space; look for the parent every 2^20 turns *)
      let n = ref 1 in
      while !n land 0xFFFFF <> 0 || Unix.getppid () = parent do
        incr n
      done;
      exit 0
  | pid ->
      live := pid :: !live

let spawn_server ~exe ~dir ~tag =
  let sock = Printf.sprintf "%s/%s.sock" dir tag in
  let stats = Printf.sprintf "%s/%s.stats.json" dir tag in
  (try Sys.remove sock with Sys_error _ -> ());
  let log =
    Unix.openfile (Printf.sprintf "%s/%s.log" dir tag) [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let args =
    [| exe; "--listen"; "unix:" ^ sock; "--domains"; "1"; "--backend"; "poll";
       "--shards"; "4"; "--tenants"; "8"; "--capacity"; "256"; "--batch"; "64";
       "--window"; "128"; "--stats"; stats |]
  in
  let pid = Unix.create_process exe args Unix.stdin log log in
  Unix.close log;
  live := pid :: !live;
  { pid; sock; stats }

let connect sock ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        Unix.set_nonblock fd;
        fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now () > deadline then failwith ("perfgen: set-up timeout connecting to " ^ sock);
        Unix.sleepf 0.0001;
        go ()
  in
  go ()

(* Stop the server with SIGTERM and require a clean exit 0. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  live := List.filter (( <> ) s.pid) !live;
  let deadline = now () + sec_ns 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ ->
        if now () > deadline then begin
          Unix.kill s.pid Sys.sigkill;
          ignore (Unix.waitpid [] s.pid);
          failwith "perfgen: riommu-serve did not exit after SIGTERM"
        end;
        Unix.sleepf 0.002;
        wait ()
    | _, Unix.WEXITED 0 -> ()
    | _, Unix.WEXITED n -> failwith (Printf.sprintf "perfgen: riommu-serve exited %d" n)
    | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) ->
        failwith (Printf.sprintf "perfgen: riommu-serve killed by signal %d" n)
  in
  wait ()

let is_again = function Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR -> true | _ -> false

(* One round of socket I/O: write what is queued, read what has
   arrived, and if nothing arrived block in select for up to
   [timeout_s]. *)
let pump (g : M.t) fds ~timeout_s =
  Array.iteri
    (fun i (c : M.conn) ->
      if c.M.slen > c.M.soff then
        match Unix.single_write fds.(i) c.M.sbuf c.M.soff (c.M.slen - c.M.soff) with
        | n -> M.wrote g c n ~now:(now ())
        | exception Unix.Unix_error (e, _, _) when is_again e -> ())
    g.M.conns;
  let got = ref false in
  Array.iteri
    (fun i (c : M.conn) ->
      if c.M.inflight > 0 then
        match Unix.read fds.(i) c.M.rbuf c.M.rlen (Bytes.length c.M.rbuf - c.M.rlen) with
        | 0 -> failwith "perfgen: riommu-serve closed a connection"
        | n ->
            c.M.rlen <- c.M.rlen + n;
            got := true;
            M.receive g c ~now:(now ()) ~clock:now
        | exception Unix.Unix_error (e, _, _) when is_again e -> ())
    g.M.conns;
  if (not !got) && timeout_s > 0. then begin
    let rd = ref [] and wr = ref [] in
    Array.iteri
      (fun i (c : M.conn) ->
        if c.M.inflight > 0 then rd := fds.(i) :: !rd;
        if c.M.slen > c.M.soff then wr := fds.(i) :: !wr)
      g.M.conns;
    if !rd <> [] || !wr <> [] then
      try ignore (Unix.select !rd !wr [] timeout_s)
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
  end

let setup_phase g fds ~deadline =
  Array.iter M.hello g.M.conns;
  while not (M.setup_done g) do
    if now () > deadline then failwith "perfgen: set-up timeout premapping";
    let t = now () in
    Array.iter (fun c -> M.fill_setup g c ~t) g.M.conns;
    pump g fds ~timeout_s:0.01
  done

(* Drain: issue nothing more; every request sent must be answered
   within 5 s, the rest count as missing. *)
let drain g fds =
  let deadline = now () + sec_ns 5. in
  while M.inflight g > 0 && now () < deadline do
    pump g fds ~timeout_s:0.01
  done;
  let missing = M.inflight g in
  for _ = 1 to missing do
    M.fail g "response missing after drain"
  done

type window = {
  mutable t_start : int;
  mutable t_end : int;
  mutable srv_ticks : int;
  mutable cli_cpu : float;
  late : M.hist;
}

(* Closed loop: top every connection up after each I/O round. *)
let run_closed g fds ~until ~on_progress =
  while now () < until do
    let t = now () in
    Array.iter (fun c -> M.fill g c ~t) g.M.conns;
    pump g fds ~timeout_s:0.005;
    on_progress ()
  done

(* Open loop: Poisson arrivals at [rate], each request timed from its
   due instant. The generator busy-polls its socket while the next
   arrival is under a millisecond away: waking a sleeping vCPU costs
   tens of microseconds here, which would show up as lateness. It has
   a core of its own (see [serve_cmd]), so polling steals nothing from
   the server. *)
let run_open g fds ~rng ~until ~next_due ~late ~on_progress =
  let c = g.M.conns.(0) in
  let mean_ns = 1e9 /. g.M.spec.M.rate in
  let due = ref next_due in
  while now () < until do
    let t = now () in
    while !due <= t && c.M.inflight < 512 do
      M.hist_add late (t - !due);
      M.send_translate_live g c (M.next_tenant c) ~t:!due;
      due := !due + int_of_float (-.mean_ns *. log (1. -. Random.State.float rng 1.0))
    done;
    let wait = !due - now () in
    pump g fds ~timeout_s:(if wait > 1_000_000 then float_of_int (wait - 500_000) *. 1e-9 else 0.);
    on_progress ()
  done;
  !due

let serve_cmd ~spec ~seed ~seconds ~exe ~dir ~out ~setups ~spans_path =
  start_idle_loop ();
  let setup_s = ref [] and connect_s = ref [] and servers = ref [] in
  let result = ref None in
  (* requests and failures of the set-up-only repetitions *)
  let extra_sent = ref 0 and extra_failed = ref 0 and extra_failures = ref [] in
  (* The set-ups before and after the measured one spread over the
     whole run, so their median sees the host's speed over the run, not
     only during its first second. *)
  let measured = (setups + 1) / 2 in
  for rep = 1 to setups do
    let g = M.create spec ~seed in
    let t0 = now () in
    (* the server runs on the first allowed CPU, the generator on the
       second, so neither migrates onto the other's core *)
    ignore (Host.pin_cpu 0);
    let srv = spawn_server ~exe ~dir ~tag:(Printf.sprintf "server%d" rep) in
    ignore (Host.pin_cpu 1);
    let deadline = t0 + sec_ns 30. in
    let fds = Array.map (fun _ -> connect srv.sock ~deadline) g.M.conns in
    connect_s := (float_of_int (now () - t0) *. 1e-9) :: !connect_s;
    setup_phase g fds ~deadline;
    setup_s := (float_of_int (now () - t0) *. 1e-9) :: !setup_s;
    if rep = measured then begin
      (match spans_path with
      | Some _ -> g.M.spans <- Some (Spans.create ~names:M.span_names ~capacity:(1 lsl 18))
      | None -> ());
      let rng = Random.State.make [| seed; 7 |] in
      let w =
        { t_start = 0; t_end = 0; srv_ticks = 0; cli_cpu = 0.; late = M.hist_create () }
      in
      let warm = min 1.0 (0.2 *. seconds) in
      let window_ns = sec_ns seconds in
      let on_progress () =
        if g.M.measuring then
          g.M.sub <- min (M.subwindows - 1) ((now () - w.t_start) * M.subwindows / window_ns)
      in
      let t_warm = now () in
      let start_window () =
        g.M.measuring <- true;
        w.t_start <- now ();
        w.srv_ticks <- cpu_ticks srv.pid;
        w.cli_cpu <- self_cpu_s ()
      in
      let end_window () =
        w.t_end <- now ();
        w.srv_ticks <- cpu_ticks srv.pid - w.srv_ticks;
        w.cli_cpu <- self_cpu_s () -. w.cli_cpu;
        g.M.measuring <- false
      in
      (match spec.M.kind with
      | M.Pipelined | M.Churn ->
          run_closed g fds ~until:(t_warm + sec_ns warm) ~on_progress;
          start_window ();
          run_closed g fds ~until:(w.t_start + sec_ns seconds) ~on_progress;
          end_window ()
      | M.Paced ->
          let scratch = M.hist_create () in
          let due =
            run_open g fds ~rng ~until:(t_warm + sec_ns warm) ~next_due:t_warm ~late:scratch
              ~on_progress
          in
          start_window ();
          ignore
            (run_open g fds ~rng ~until:(w.t_start + sec_ns seconds) ~next_due:due ~late:w.late
               ~on_progress);
          end_window ());
      drain g fds;
      result := Some (g, w, vm_hwm_kb (string_of_int srv.pid))
    end
    else drain g fds;
    Array.iter Unix.close fds;
    stop_server srv;
    servers := (srv.stats, g.M.sent, rep = measured) :: !servers;
    if rep <> measured then begin
      extra_sent := !extra_sent + g.M.sent;
      extra_failed := !extra_failed + g.M.failed;
      extra_failures := g.M.first_failures @ !extra_failures
    end
  done;
  let g, w, rss_kb = Option.get !result in
  let window_s = float_of_int (w.t_end - w.t_start) *. 1e-9 in
  let ops = g.M.window_ops in
  let per_op x = if ops > 0 then x /. float_of_int ops else 0. in
  let all = M.hist_create () in
  Array.iter (fun h -> M.hist_merge ~into:all h) g.M.lat;
  let sub_s = window_s /. float_of_int M.subwindows in
  let subs f = json_floats (Array.to_list (Array.mapi f g.M.lat)) in
  let spans_recorded =
    match (g.M.spans, spans_path) with
    | Some sp, Some p ->
        Spans.write sp p;
        Spans.recorded sp
    | _ -> 0
  in
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"mode\": \"serve\", \"workload\": %S, \"seed\": %d,\n" spec.M.name seed;
  Printf.bprintf b " \"setup_s\": %s,\n \"setup_connect_s\": %s,\n" (json_floats (List.rev !setup_s))
    (json_floats (List.rev !connect_s));
  Printf.bprintf b " \"window_s\": %.9f, \"window_ops\": %d, \"ops_per_s\": %.6f,\n" window_s ops
    (float_of_int ops /. window_s);
  Printf.bprintf b " \"subwindow_s\": %.9f,\n \"sub_ops_per_s\": %s,\n" sub_s
    (subs (fun i _ -> float_of_int g.M.sub_ops.(i) /. sub_s));
  Printf.bprintf b " \"sub_p50_us\": %s,\n \"sub_p99_us\": %s,\n"
    (subs (fun _ h -> M.quantile h 0.5 /. 1e3))
    (subs (fun _ h -> M.quantile h 0.99 /. 1e3));
  Printf.bprintf b
    " \"lat_p50_us\": %.6f, \"lat_p99_us\": %.6f, \"lat_p999_us\": %.6f, \"lat_samples\": %d,\n"
    (M.quantile all 0.5 /. 1e3) (M.quantile all 0.99 /. 1e3) (M.quantile all 0.999 /. 1e3)
    all.M.total;
  Printf.bprintf b " \"late_p99_us\": %.6f, \"late_samples\": %d,\n" (M.quantile w.late 0.99 /. 1e3)
    w.late.M.total;
  Printf.bprintf b " \"server_cpu_us_per_op\": %.6f, \"client_cpu_us_per_op\": %.6f,\n"
    (per_op (float_of_int w.srv_ticks *. 1e4))
    (per_op (w.cli_cpu *. 1e6));
  Printf.bprintf b " \"server_rss_kb\": %d,\n" rss_kb;
  Printf.bprintf b " \"attempted\": %d, \"failed\": %d, \"faults_seen\": %d,\n"
    (g.M.sent + !extra_sent) (g.M.failed + !extra_failed) g.M.faults_seen;
  Printf.bprintf b " \"sent_by_op\": {\"map\": %d, \"unmap\": %d, \"map_sg\": %d, \"translate\": %d},\n"
    g.M.sent_by_op.(Wire.op_map) g.M.sent_by_op.(Wire.op_unmap) g.M.sent_by_op.(Wire.op_map_sg)
    g.M.sent_by_op.(Wire.op_translate);
  Printf.bprintf b " \"servers\": [%s],\n"
    (String.concat ", "
       (List.rev_map
          (fun (p, n, m) -> Printf.sprintf "{\"stats\": %S, \"sent\": %d, \"measured\": %b}" p n m)
          !servers));
  Printf.bprintf b " \"spans_recorded\": %d,\n" spans_recorded;
  Printf.bprintf b " \"failures\": %s}\n"
    (json_strings (List.rev_append g.M.first_failures !extra_failures));
  write_file out (Buffer.contents b)

(* {1 replay: the same generator through the service's modules} *)

(* Span kinds of the replay; indices into [replay_names]. *)
let k_wait = 0
let k_read = 1
let k_next = 2
let k_enqueue = 3
let k_flush = 4
let k_write = 5
let k_shard = 6 (* + op kind index *)
let k_encode = 10

let replay_names =
  [| "readiness.wait"; "transport.read"; "conn.next"; "dispatch.enqueue";
     "dispatch.flush_all"; "transport.write"; "shard.map"; "shard.unmap";
     "shard.translate"; "shard.map_sg"; "wire.encode" |]

type acc = { ns : int array; calls : int array; ops : int array; words : float array }

let acc_create () =
  let n = Array.length replay_names in
  { ns = Array.make n 0; calls = Array.make n 0; ops = Array.make n 0; words = Array.make n 0. }

(* The cost of an empty timed span (two clock reads), subtracted from
   every span so short calls are not dominated by the clock. *)
let clock_overhead_ns () =
  let a = Array.init 10_001 (fun _ ->
    let t0 = now () in
    now () - t0)
  in
  Array.sort compare a;
  a.(5000)

let shard_op_index op =
  if op = Wire.op_map then 0
  else if op = Wire.op_unmap then 1
  else if op = Wire.op_translate then 2
  else 3

let replay_cmd ~spec ~seed ~seconds ~out ~spans_path =
  let mk () =
    Array.init 4 (fun id ->
        Shard.create ~id ~tenants:8 ~iotlb_capacity:256
          ~iotlb_policy:Rio_domain.Shared_iotlb.Shared ~rcache:true ())
  in
  let shards = mk () and twin = mk () in
  let d = Dispatch.create ~shards ~batch:64 ~sg_limit:M.sg_limit () in
  let g = M.create spec ~seed in
  let nc = Array.length g.M.conns in
  let conns = Array.init nc (fun _ -> Conn.create ~window:128 ~sg_limit:M.sg_limit ()) in
  Array.iteri (fun i c -> Conn.set_token c i) conns;
  let pairs = Array.init nc (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  Array.iter (fun (a, _) -> Unix.set_nonblock a) pairs;
  let rd = Readiness.create Readiness.Poll in
  Array.iteri
    (fun i (_, b) ->
      let h = Readiness.register rd b ~token:i in
      Readiness.interest rd ~handle:h ~read:true ~write:false)
    pairs;
  let spans = Spans.create ~names:replay_names ~capacity:(1 lsl 18) in
  let acc = acc_create () in
  let ovh = clock_overhead_ns () in
  let iter = ref 0 in
  let span kind t0 t1 ~ops =
    acc.ns.(kind) <- acc.ns.(kind) + max 0 (t1 - t0 - ovh);
    acc.calls.(kind) <- acc.calls.(kind) + 1;
    acc.ops.(kind) <- acc.ops.(kind) + ops;
    Spans.record spans ~kind ~id:!iter ~start:t0 ~stop:t1
  in
  (* twin placement mirrors Dispatch's first-sight pinning *)
  let place = Array.make 4096 (-1) and slot = Array.make 4096 0 and next_slot = Array.make 4 0 in
  let twin_place ~tenant ~bdf =
    if place.(tenant) < 0 then begin
      let s = Dispatch.shard_of d ~tenant ~bdf in
      place.(tenant) <- s;
      slot.(tenant) <- next_slot.(s);
      next_slot.(s) <- next_slot.(s) + 1
    end
  in
  (* decoded requests of one wakeup, copied out for the twin *)
  let cap = 1024 in
  let reqs = Array.init cap (fun _ -> Wire.create_req ~sg_limit:M.sg_limit) in
  let q_conn = Array.make cap 0 in
  let t_op = Array.make cap 0 and t_sh = Array.make cap 0 and t_slot = Array.make cap 0 in
  let t_a = Array.make cap 0 and t_b = Array.make cap 0 and t_id = Array.make cap 0 in
  let t_segs = Array.init cap (fun _ -> Array.make M.sg_segs (Rio_memory.Addr.phys_of_int 0, 0)) in
  let t_res = Array.make cap 0 and t_iovas = Array.init cap (fun _ -> Array.make M.sg_limit 0) in
  let scratch = Bytes.create 4096 in
  let ready = Array.make nc false in
  let on_ready tok _bits = ready.(tok) <- true in
  let words () = Gc.minor_words () in
  let w_base =
    let w0 = words () in
    let w1 = words () in
    w1 -. w0
  in
  let add_words kind w0 w1 = acc.words.(kind) <- acc.words.(kind) +. (w1 -. w0 -. w_base) in
  let cycles0 = Array.fold_left (fun a s -> a + Rio_sim.Cycles.now (Shard.clock s)) 0 twin in
  let twin_mismatch = ref 0 in
  let run_twin n =
    (* shard self-time: the same calls against the twin shard set, timed
       per run of consecutive same-kind ops *)
    let j = ref 0 in
    while !j < n do
      let op = t_op.(!j) in
      let k = ref !j in
      while !k < n && t_op.(!k) = op do incr k done;
      let kind = k_shard + shard_op_index op in
      let w0 = words () in
      let t0 = now () in
      for i = !j to !k - 1 do
        let sh = twin.(t_sh.(i)) and tenant = t_slot.(i) in
        if op = Wire.op_translate then
          t_res.(i) <-
            (match Shard.translate_record sh ~tenant ~iova:t_a.(i) ~write:(t_b.(i) <> 0) with
            | p -> Rio_memory.Addr.to_int p
            | exception Rio_domain.Manager.Translation_fault -> -1)
        else if op = Wire.op_map then
          t_res.(i) <-
            (match Shard.map_record sh ~tenant ~phys:(Rio_memory.Addr.phys_of_int t_a.(i)) ~bytes:t_b.(i) with
            | Ok iova -> iova
            | Error `Exhausted -> -1)
        else if op = Wire.op_unmap then
          t_res.(i) <- (match Shard.unmap_record sh ~tenant ~iova:t_a.(i) with Ok () -> 0 | Error _ -> -1)
        else
          t_res.(i) <-
            (match Shard.map_sg_record sh ~tenant ~segs:t_segs.(i) ~n:t_b.(i) ~iovas:t_iovas.(i) with
            | Ok _ -> 0
            | Error `Exhausted -> -1)
      done;
      let t1 = now () in
      add_words kind w0 (words ());
      span kind t0 t1 ~ops:(!k - !j);
      (* response encoding, same run *)
      let t0 = now () in
      for i = !j to !k - 1 do
        let req_id = t_id.(i) in
        ignore
          (if t_res.(i) < 0 then Wire.encode_error scratch ~pos:0 ~op ~status:Wire.st_fault ~req_id
           else if op = Wire.op_translate then Wire.encode_translate_ok scratch ~pos:0 ~req_id ~phys:t_res.(i)
           else if op = Wire.op_map then Wire.encode_map_ok scratch ~pos:0 ~req_id ~iova:t_res.(i)
           else if op = Wire.op_unmap then Wire.encode_unmap_ok scratch ~pos:0 ~req_id
           else Wire.encode_map_sg_ok scratch ~pos:0 ~req_id ~iovas:t_iovas.(i) ~n:t_b.(i))
      done;
      span k_encode t0 (now ()) ~ops:(!k - !j);
      j := !k
    done
  in
  let server_step () =
    (* one event-loop wakeup, spans around each module call *)
    let t0 = now () in
    ignore (Readiness.wait rd ~timeout_ms:(-1));
    span k_wait t0 (now ()) ~ops:0;
    Array.fill ready 0 nc false;
    Readiness.iter_ready rd on_ready;
    let n = ref 0 in
    for i = 0 to nc - 1 do
      if ready.(i) then begin
        let c = conns.(i) and (_, fd) = pairs.(i) in
        let capacity = Conn.read_capacity c in
        let t0 = now () in
        let got = Unix.read fd (Conn.rbuf c) (Conn.read_offset c) capacity in
        span k_read t0 (now ()) ~ops:0;
        Conn.fed c got;
        let first = !n in
        let w0 = words () in
        let t0 = now () in
        while !n < cap && Conn.can_admit c && Conn.next c reqs.(!n) > 0 do
          q_conn.(!n) <- i;
          incr n
        done;
        let t1 = now () in
        add_words k_next w0 (words ());
        span k_next t0 t1 ~ops:(!n - first)
      end
    done;
    (* copy out for the twin before the records are reused *)
    for j = 0 to !n - 1 do
      let r = reqs.(j) in
      twin_place ~tenant:r.Wire.tenant ~bdf:(Conn.bdf conns.(q_conn.(j)));
      t_op.(j) <- r.Wire.op;
      t_sh.(j) <- place.(r.Wire.tenant);
      t_slot.(j) <- slot.(r.Wire.tenant);
      t_id.(j) <- r.Wire.req_id;
      if r.Wire.op = Wire.op_map then begin
        t_a.(j) <- r.Wire.phys;
        t_b.(j) <- r.Wire.bytes
      end
      else if r.Wire.op = Wire.op_map_sg then begin
        t_b.(j) <- r.Wire.nseg;
        for k = 0 to r.Wire.nseg - 1 do
          t_segs.(j).(k) <- (Rio_memory.Addr.phys_of_int r.Wire.seg_phys.(k), r.Wire.seg_bytes.(k))
        done
      end
      else begin
        t_a.(j) <- r.Wire.iova;
        t_b.(j) <- (if r.Wire.write then 1 else 0)
      end
    done;
    let flush () =
      let w0 = words () in
      let t0 = now () in
      let before = Dispatch.executed d in
      Dispatch.flush_all d;
      let t1 = now () in
      add_words k_flush w0 (words ());
      span k_flush t0 t1 ~ops:(Dispatch.executed d - before)
    in
    let w0 = ref (words ()) in
    let t0 = ref (now ()) in
    let j = ref 0 in
    while !j < !n do
      if Dispatch.enqueue d conns.(q_conn.(!j)) reqs.(!j) then incr j
      else begin
        (* a shard batch is full: flush mid-read, as the loop does, and
           keep that time out of the enqueue span *)
        let t1 = now () in
        add_words k_enqueue !w0 (words ());
        span k_enqueue !t0 t1 ~ops:0;
        flush ();
        w0 := words ();
        t0 := now ()
      end
    done;
    let t1 = now () in
    add_words k_enqueue !w0 (words ());
    span k_enqueue !t0 t1 ~ops:!n;
    flush ();
    for i = 0 to nc - 1 do
      let c = conns.(i) and (_, fd) = pairs.(i) in
      let q = Conn.queued c in
      if q > 0 then begin
        let t0 = now () in
        let w = Unix.write fd (Conn.wbuf c) (Conn.wpos c) q in
        span k_write t0 (now ()) ~ops:0;
        Conn.consumed c w
      end
    done;
    run_twin !n;
    !n
  in
  let client_step ~fill =
    Array.iteri
      (fun i (c : M.conn) ->
        let t = now () in
        fill c ~t;
        if c.M.slen > c.M.soff then begin
          let a, _ = pairs.(i) in
          let w = Unix.write a c.M.sbuf c.M.soff (c.M.slen - c.M.soff) in
          M.wrote g c w ~now:(now ())
        end)
      g.M.conns
  in
  let client_read () =
    Array.iteri
      (fun i (c : M.conn) ->
        let a, _ = pairs.(i) in
        let continue = ref true in
        while !continue do
          match Unix.read a c.M.rbuf c.M.rlen (Bytes.length c.M.rbuf - c.M.rlen) with
          | 0 -> continue := false
          | k ->
              c.M.rlen <- c.M.rlen + k;
              M.receive g c ~now:(now ()) ~clock:now
          | exception Unix.Unix_error (e, _, _) when is_again e -> continue := false
        done)
      g.M.conns
  in
  let step ~fill =
    incr iter;
    client_step ~fill;
    ignore (server_step ());
    client_read ()
  in
  Array.iter M.hello g.M.conns;
  let t_start = now () in
  while not (M.setup_done g) do
    step ~fill:(fun c ~t -> M.fill_setup g c ~t)
  done;
  (* steady state, closed loop for every workload: translate-paced keeps
     one request in flight, so it replays its batch-1 path *)
  let deadline = now () + sec_ns seconds in
  while now () < deadline do
    step ~fill:(M.fill g)
  done;
  while M.inflight g > 0 do
    step ~fill:(fun _ ~t:_ -> ())
  done;
  let wall = float_of_int (now () - t_start) *. 1e-9 in
  (* the twin must have answered exactly like the service did *)
  Array.iteri
    (fun i s ->
      for op = 0 to Shard.op_count - 1 do
        let o = Shard.op_of_index op in
        if Shard.ops s o <> Shard.ops shards.(i) o then incr twin_mismatch
      done)
    twin;
  let cycles = Array.fold_left (fun a s -> a + Rio_sim.Cycles.now (Shard.clock s)) 0 twin - cycles0 in
  let hits = ref 0 and misses = ref 0 and faults = ref 0 in
  Array.iter
    (fun s ->
      faults := !faults + Shard.faults s;
      for tenant = 0 to Shard.tenants s - 1 do
        let st = Shard.iotlb_stats s ~tenant in
        hits := !hits + st.Rio_domain.Shared_iotlb.hits;
        misses := !misses + st.Rio_domain.Shared_iotlb.misses
      done)
    twin;
  (match spans_path with Some p -> Spans.write spans p | None -> ());
  let b = Buffer.create 2048 in
  Printf.bprintf b "{\"mode\": \"replay\", \"workload\": %S, \"seed\": %d, \"wall_s\": %.6f,\n"
    spec.M.name seed wall;
  Printf.bprintf b " \"clock_overhead_ns\": %d, \"iterations\": %d, \"executed\": %d,\n" ovh !iter
    (Dispatch.executed d);
  Printf.bprintf b " \"layers\": {\n";
  Array.iteri
    (fun k name ->
      Printf.bprintf b "  %S: {\"ns\": %d, \"calls\": %d, \"ops\": %d, \"minor_words\": %.1f}%s\n"
        name acc.ns.(k) acc.calls.(k) acc.ops.(k) acc.words.(k)
        (if k < Array.length replay_names - 1 then "," else ""))
    replay_names;
  Printf.bprintf b " },\n";
  Printf.bprintf b " \"twin_sim_cycles\": %d, \"twin_ops\": %d, \"twin_mismatch\": %d,\n" cycles
    (Array.fold_left (fun a s -> a + Shard.total_ops s) 0 twin)
    !twin_mismatch;
  Printf.bprintf b " \"iotlb_hits\": %d, \"iotlb_misses\": %d, \"shard_faults\": %d,\n" !hits !misses
    !faults;
  Printf.bprintf b " \"attempted\": %d, \"failed\": %d, \"spans_recorded\": %d,\n" g.M.sent g.M.failed
    (Spans.recorded spans);
  Printf.bprintf b " \"failures\": %s}\n" (json_strings (List.rev g.M.first_failures));
  write_file out (Buffer.contents b)

(* {1 repro: the paper-reproduction registry} *)

(* One pass over the registry in registry order with the pinned seed.
   Some experiments memoize shared intermediate results in module-level
   tables, so a second pass in the same process would time cache hits:
   run.py starts a fresh process per pass instead. *)
let repro_seed = 42

let repro_cmd ~out ~render ~spans_path =
  let ids = Array.of_list Rio_experiments.Registry.ids in
  (* set-up: build every experiment's plan (cells + reduce) *)
  Array.iter
    (fun id ->
      let plan = Option.get (Rio_experiments.Registry.find_plan id) in
      ignore (Sys.opaque_identity (plan ~quick:true ~seed:repro_seed ())))
    ids;
  let ready_ns = now () in
  let spans = Spans.create ~names:ids ~capacity:64 in
  let gc0 = Gc.quick_stat () in
  let cpu0 = self_cpu_s () in
  let texts =
    Array.mapi
      (fun k id ->
        let run = Option.get (Rio_experiments.Registry.find id) in
        let t0 = now () in
        let exp = run ~quick:true ~seed:repro_seed ~jobs:1 () in
        Spans.record spans ~kind:k ~id:0 ~start:t0 ~stop:(now ());
        Rio_experiments.Exp.render exp ^ "\n")
      ids
  in
  let pass_ns = now () - ready_ns in
  let cpu = self_cpu_s () -. cpu0 in
  let gc1 = Gc.quick_stat () in
  write_file render (String.concat "" (Array.to_list texts));
  (match spans_path with Some p -> Spans.write spans p | None -> ());
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"mode\": \"repro\", \"experiment_seed\": %d, \"ready_ns\": %d,\n" repro_seed
    ready_ns;
  Printf.bprintf b " \"pass_s\": %.9f, \"cpu_s\": %.6f, \"rss_kb\": %d,\n" (float_of_int pass_ns *. 1e-9)
    cpu (vm_hwm_kb "self");
  Printf.bprintf b " \"minor_words\": %.0f, \"major_collections\": %d,\n"
    (gc1.Gc.minor_words -. gc0.Gc.minor_words)
    (gc1.Gc.major_collections - gc0.Gc.major_collections);
  Printf.bprintf b " \"experiments\": {%s}}\n"
    (String.concat ", "
       (Array.to_list
          (Array.mapi
             (fun k id -> Printf.sprintf "%S: %.9f" id (float_of_int spans.Spans.buf.((4 * k) + 3) *. 1e-9))
             ids)));
  write_file out (Buffer.contents b)

(* {1 calib: the host's speed} *)

(* The time of one block of a fixed integer loop (an xorshift over 2^21
   steps, about 10 ms on a 2-vCPU guest), per block. The guest's vCPUs
   share the host, so this moves with the host's load; run.py stamps
   its median on every result and steadiness.py refuses to compare sets
   whose medians differ. *)
let calib_cmd ~blocks =
  let times =
    List.init blocks (fun _ ->
        let t0 = now () in
        let x = ref 88172645463325252 in
        for _ = 1 to 1 lsl 21 do
          x := !x lxor (!x lsl 13);
          x := !x lxor (!x lsr 7);
          x := !x lxor (!x lsl 17)
        done;
        ignore (Sys.opaque_identity !x);
        float_of_int (now () - t0) *. 1e-6)
  in
  Printf.printf "{\"block_ms\": %s}\n" (json_floats times)

(* {1 Command line} *)

let main () =
  let argv = Array.to_list Sys.argv in
  let mode = match argv with _ :: m :: _ -> m | _ -> "" in
  let opt name default =
    let rec go = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> go rest
      | [] -> default
    in
    go argv
  in
  let req name =
    match opt name "" with
    | "" ->
        prerr_endline ("perfgen: missing " ^ name);
        exit 2
    | v -> v
  in
  let spec () =
    match M.spec_of_name (req "--workload") with
    | Some s -> s
    | None ->
        prerr_endline "perfgen: unknown workload";
        exit 2
  in
  let seed () = int_of_string (req "--seed") in
  let seconds () = float_of_string (req "--seconds") in
  let spans_path = match opt "--trace-spans" "" with "" -> None | p -> Some p in
  match mode with
  | "serve" ->
      serve_cmd ~spec:(spec ()) ~seed:(seed ()) ~seconds:(seconds ()) ~exe:(req "--server")
        ~dir:(req "--dir") ~out:(req "--out") ~setups:(int_of_string (opt "--setups" "21")) ~spans_path
  | "replay" -> replay_cmd ~spec:(spec ()) ~seed:(seed ()) ~seconds:(seconds ()) ~out:(req "--out") ~spans_path
  | "repro" -> repro_cmd ~out:(req "--out") ~render:(req "--render") ~spans_path
  | "calib" -> calib_cmd ~blocks:(int_of_string (req "--blocks"))
  | "info" ->
      Printf.printf "{\"backend\": %S, \"ocaml\": %S, \"experiments\": %s}\n"
        (Readiness.backend_name Readiness.default_backend)
        Sys.ocaml_version
        (json_strings Rio_experiments.Registry.ids)
  | _ ->
      prerr_endline "usage: perfgen (serve|replay|repro|info|calib) ...";
      exit 2

(* Any failure is reported and exits nonzero; at_exit kills live servers. *)
let () =
  try main () with
  | Failure m ->
      prerr_endline m;
      exit 1
  | e ->
      prerr_endline ("perfgen: " ^ Printexc.to_string e);
      exit 1
