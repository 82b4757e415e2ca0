(* Monotonic timing, sample statistics and the benchmark's own span
   recorder.

   Every duration in the benchmark comes from [now_ns], bechamel's
   CLOCK_MONOTONIC reader: nanosecond resolution and immune to wall-clock
   adjustments.  Spans are recorded in the benchmark's code around calls
   into the program's layers, never inside the program.  Spans of one op
   share its id; a span opened while another is open is its child, so
   the self-time table can subtract the time of contained spans. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds_of_ns ns = float_of_int ns *. 1e-9
let us_of_ns ns = float_of_int ns *. 1e-3

(* ---- sample statistics -------------------------------------------- *)

(* Linear-interpolated quantile of an unsorted sample; [nan] when empty. *)
let quantile (xs : float array) q =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let a = Array.copy xs in
    Array.sort Float.compare a;
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* A growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 1024 0.; len = 0 }

  let add s x =
    if s.len = Array.length s.data then begin
      let d = Array.make (2 * s.len) 0. in
      Array.blit s.data 0 d 0 s.len;
      s.data <- d
    end;
    s.data.(s.len) <- x;
    s.len <- s.len + 1

  let to_array s = Array.sub s.data 0 s.len
end

(* ---- spans --------------------------------------------------------- *)

type t = {
  mutable on : bool;
  names : (string, int) Hashtbl.t;
  mutable name_of : string array;
  mutable len : int;
  mutable name : int array;
  mutable op : int array;
  mutable t0 : int array;
  mutable t1 : int array;
  mutable parent : int array;
  mutable stack : int list;
}

let create () =
  let cap = 4096 in
  {
    on = true;
    names = Hashtbl.create 32;
    name_of = [||];
    len = 0;
    name = Array.make cap 0;
    op = Array.make cap 0;
    t0 = Array.make cap 0;
    t1 = Array.make cap 0;
    parent = Array.make cap (-1);
    stack = [];
  }

let off () = { (create ()) with on = false }

let name_id tr s =
  match Hashtbl.find_opt tr.names s with
  | Some i -> i
  | None ->
    let i = Array.length tr.name_of in
    Hashtbl.add tr.names s i;
    tr.name_of <- Array.append tr.name_of [| s |];
    i

let grow tr =
  let cap = 2 * Array.length tr.name in
  let g a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 tr.len;
    b
  in
  tr.name <- g tr.name 0;
  tr.op <- g tr.op 0;
  tr.t0 <- g tr.t0 0;
  tr.t1 <- g tr.t1 0;
  tr.parent <- g tr.parent (-1)

(* Opens a span and returns its handle ([-1] when recording is off). *)
let enter tr name op =
  if not tr.on then -1
  else begin
    if tr.len = Array.length tr.name then grow tr;
    let i = tr.len in
    tr.len <- i + 1;
    tr.name.(i) <- name;
    tr.op.(i) <- op;
    tr.parent.(i) <- (match tr.stack with p :: _ -> p | [] -> -1);
    tr.stack <- i :: tr.stack;
    tr.t0.(i) <- now_ns ();
    i
  end

(* Closes the innermost open span, optionally renaming it (the outcome
   of a call, e.g. admitted vs refused, is known only after it). *)
let leave ?rename tr i =
  if i >= 0 then begin
    tr.t1.(i) <- now_ns ();
    (match rename with Some n -> tr.name.(i) <- n | None -> ());
    match tr.stack with _ :: rest -> tr.stack <- rest | [] -> ()
  end

let span tr name op f =
  let i = enter tr name op in
  match f () with
  | v ->
    leave tr i;
    v
  | exception e ->
    leave tr i;
    raise e

let dur tr i = tr.t1.(i) - tr.t0.(i)

(* Durations in µs of every span with this name. *)
let durations_us tr name =
  match Hashtbl.find_opt tr.names name with
  | None -> [||]
  | Some id ->
    let s = Sample.create () in
    for i = 0 to tr.len - 1 do
      if tr.name.(i) = id then Sample.add s (us_of_ns (dur tr i))
    done;
    Sample.to_array s

let count tr name = Array.length (durations_us tr name)

(* Per-op sum (µs) of the spans with one of [names], for ops that have
   at least one of them; used to price a whole in-process op. *)
let per_op_sum_us tr names =
  let ids = List.filter_map (Hashtbl.find_opt tr.names) names in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to tr.len - 1 do
    if List.mem tr.name.(i) ids then begin
      let prev = Option.value ~default:0 (Hashtbl.find_opt tbl tr.op.(i)) in
      Hashtbl.replace tbl tr.op.(i) (prev + dur tr i)
    end
  done;
  Hashtbl.fold (fun _ ns acc -> us_of_ns ns :: acc) tbl [] |> Array.of_list

(* Self time = span time minus the time of the spans it directly
   contains.  Rows: name, calls, total ms, self ms, mean self µs. *)
let self_time_rows tr =
  let child = Array.make tr.len 0 in
  for i = 0 to tr.len - 1 do
    let p = tr.parent.(i) in
    if p >= 0 then child.(p) <- child.(p) + dur tr i
  done;
  let n = Array.length tr.name_of in
  let calls = Array.make n 0 and total = Array.make n 0
  and self = Array.make n 0 in
  for i = 0 to tr.len - 1 do
    let k = tr.name.(i) in
    calls.(k) <- calls.(k) + 1;
    total.(k) <- total.(k) + dur tr i;
    self.(k) <- self.(k) + dur tr i - child.(i)
  done;
  List.init n (fun k -> (tr.name_of.(k), calls.(k), total.(k), self.(k)))
  |> List.filter (fun (_, c, _, _) -> c > 0)

let self_time_table (lanes : (string * t) list) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-10s %-36s %9s %12s %12s %10s\n" "lane" "span" "calls"
    "total_ms" "self_ms" "self_us/op";
  List.iter
    (fun (lane, tr) ->
      List.iter
        (fun (name, calls, total, self) ->
          Printf.bprintf b "%-10s %-36s %9d %12.3f %12.3f %10.3f\n" lane name
            calls
            (float_of_int total *. 1e-6)
            (float_of_int self *. 1e-6)
            (us_of_ns self /. float_of_int calls))
        (self_time_rows tr))
    lanes;
  Buffer.contents b

(* Chrome trace_event JSON ("X" complete events, µs timestamps), one
   thread lane per recorder.  Only spans of the first [chrome_ops] ops of
   each lane are exported, so the file stays loadable; the self-time
   table covers every span. *)
let chrome_ops = 2000

let chrome (lanes : (string * t) list) =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let base =
    List.fold_left
      (fun acc (_, tr) -> if tr.len > 0 then min acc tr.t0.(0) else acc)
      max_int lanes
  in
  List.iteri
    (fun tid (lane, tr) ->
      if not !first then Buffer.add_char b ',';
      first := false;
      Printf.bprintf b
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"args\":{\"name\":%S}}"
        tid lane;
      for i = 0 to tr.len - 1 do
        if tr.op.(i) < chrome_ops then
          Printf.bprintf b
            ",{\"name\":%S,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}"
            tr.name_of.(tr.name.(i)) tid
            (us_of_ns (tr.t0.(i) - base))
            (us_of_ns (dur tr i))
            tr.op.(i)
      done)
    lanes;
  Buffer.add_string b "]}\n";
  Buffer.contents b
