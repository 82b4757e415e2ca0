external ep_create : unit -> int = "wdm_epoll_create"

external ep_ctl : int -> int -> Unix.file_descr -> bool -> bool -> int
  = "wdm_epoll_ctl"

external ep_wait : int -> int -> int array = "wdm_epoll_wait"
external raise_nofile : int -> int = "wdm_raise_nofile"

(* Unix.file_descr is the underlying int on Unix; the stubs already
   treat it as such, and the select fallback needs the reverse mapping
   to hand epoll-style (fd, flags) results back out. *)
external fd_of_int : int -> Unix.file_descr = "%identity"

type backend = Epoll of int | Select

type t = {
  backend : backend;
  (* registered interest, also the working set for the select fallback *)
  interest : (Unix.file_descr, bool * bool) Hashtbl.t;
}

let create () =
  let ep = ep_create () in
  let backend = if ep >= 0 then Epoll ep else Select in
  { backend; interest = Hashtbl.create 64 }

let backend_name t = match t.backend with Epoll _ -> "epoll" | Select -> "select"

let available_backend () =
  let ep = ep_create () in
  if ep >= 0 then begin
    (try Unix.close (fd_of_int ep) with Unix.Unix_error _ -> ());
    "epoll"
  end
  else "select"

let op_add = 0
let op_mod = 1
let op_del = 2

let add t fd ~read ~write =
  if not (Hashtbl.mem t.interest fd) then begin
    Hashtbl.replace t.interest fd (read, write);
    match t.backend with
    | Epoll ep -> ignore (ep_ctl ep op_add fd read write)
    | Select -> ()
  end

let modify t fd ~read ~write =
  match Hashtbl.find_opt t.interest fd with
  | None -> ()
  | Some (r, w) when r = read && w = write -> ()
  | Some _ -> (
    Hashtbl.replace t.interest fd (read, write);
    match t.backend with
    | Epoll ep -> ignore (ep_ctl ep op_mod fd read write)
    | Select -> ())

let remove t fd =
  if Hashtbl.mem t.interest fd then begin
    Hashtbl.remove t.interest fd;
    match t.backend with
    | Epoll ep -> ignore (ep_ctl ep op_del fd false false)
    | Select -> ()
  end

let registered t fd = Hashtbl.mem t.interest fd

let wait t ~timeout_ms =
  match t.backend with
  | Epoll ep ->
    let raw = ep_wait ep timeout_ms in
    let n = Array.length raw / 2 in
    let out = ref [] in
    for i = n - 1 downto 0 do
      let fd = fd_of_int raw.(2 * i) in
      (* an event may arrive for an fd removed earlier in the same
         batch's processing; interest is the source of truth *)
      if Hashtbl.mem t.interest fd then begin
        let flags = raw.((2 * i) + 1) in
        out := (fd, flags land 1 <> 0, flags land 2 <> 0) :: !out
      end
    done;
    !out
  | Select ->
    let rds = ref [] and wrs = ref [] in
    Hashtbl.iter
      (fun fd (r, w) ->
        if r then rds := fd :: !rds;
        if w then wrs := fd :: !wrs)
      t.interest;
    let timeout = float_of_int timeout_ms /. 1000. in
    if !rds = [] && !wrs = [] then begin
      (* nothing to watch: just honour the timeout *)
      (try ignore (Unix.select [] [] [] timeout)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      []
    end
    else begin
      match Unix.select !rds !wrs [] timeout with
      | exception Unix.Unix_error ((Unix.EINTR | Unix.EBADF), _, _) -> []
      | r, w, _ ->
        let tbl = Hashtbl.create (List.length r + List.length w) in
        List.iter (fun fd -> Hashtbl.replace tbl fd (true, false)) r;
        List.iter
          (fun fd ->
            let rd =
              match Hashtbl.find_opt tbl fd with Some (b, _) -> b | None -> false
            in
            Hashtbl.replace tbl fd (rd, true))
          w;
        Hashtbl.fold (fun fd (rd, wr) acc -> (fd, rd, wr) :: acc) tbl []
    end

let close t =
  Hashtbl.reset t.interest;
  match t.backend with
  | Epoll ep -> ( try Unix.close (fd_of_int ep) with Unix.Unix_error _ -> ())
  | Select -> ()

let ensure_fd_capacity want = raise_nofile want
