type open_file = { path : string; mutable offset : int }

type t = {
  files : (string, string) Hashtbl.t;
  fds : (int, open_file) Hashtbl.t;
  mutable next_fd : int;
  mutable next_endpoint : int;
}

let create () =
  { files = Hashtbl.create 16; fds = Hashtbl.create 16; next_fd = 3; next_endpoint = 0 }

let add_file t ~path contents = Hashtbl.replace t.files path contents

let remove_file t ~path = Hashtbl.remove t.files path

let file_size t ~path =
  match Hashtbl.find_opt t.files path with Some c -> Some (String.length c) | None -> None

let open_file t ~path =
  if Hashtbl.mem t.files path then begin
    let fd = t.next_fd in
    t.next_fd <- t.next_fd + 1;
    Hashtbl.replace t.fds fd { path; offset = 0 };
    Some fd
  end
  else None

let read_fd t ~fd ~len =
  match Hashtbl.find_opt t.fds fd with
  | None -> None
  | Some f -> (
      match Hashtbl.find_opt t.files f.path with
      | None -> None
      | Some contents ->
          let avail = max 0 (String.length contents - f.offset) in
          let n = min len avail in
          let s = if n = String.length contents then contents else String.sub contents f.offset n in
          f.offset <- f.offset + n;
          Some s)

let close_fd t ~fd =
  if Hashtbl.mem t.fds fd then begin
    Hashtbl.remove t.fds fd;
    true
  end
  else false

(* One direction of a socket: the buffers [send] handed over, in order,
   and how far [recv] has consumed the first. They are queued, not
   copied, and a whole-buffer [recv] hands one on untouched: payloads
   above 2 KiB are allocated straight into the major heap, where every
   copy adds to the garbage the major GC must keep pace with. *)
type chan = { chunks : Bytes.t Queue.t; mutable off : int; mutable len : int }

type endpoint = { id : int; incoming : chan; peer_incoming : chan }

let socket_pair t =
  let chan () = { chunks = Queue.create (); off = 0; len = 0 } in
  let a_in = chan () and b_in = chan () in
  let a = { id = t.next_endpoint; incoming = a_in; peer_incoming = b_in } in
  let b = { id = t.next_endpoint + 1; incoming = b_in; peer_incoming = a_in } in
  t.next_endpoint <- t.next_endpoint + 2;
  (a, b)

let send ep b =
  let c = ep.peer_incoming and n = Bytes.length b in
  if n > 0 then begin
    Queue.push b c.chunks;
    c.len <- c.len + n
  end;
  n

let recv ep ~max =
  let c = ep.incoming in
  let n = min max c.len in
  if n <= 0 then Bytes.empty
  else if c.off = 0 && Bytes.length (Queue.peek c.chunks) = n then begin
    c.len <- c.len - n;
    Queue.pop c.chunks
  end
  else begin
    (* a partial read, or one spanning chunks: copy out *)
    let out = Bytes.create n in
    let rec fill pos =
      if pos < n then begin
        let chunk = Queue.peek c.chunks in
        let k = min (n - pos) (Bytes.length chunk - c.off) in
        Bytes.blit chunk c.off out pos k;
        if c.off + k = Bytes.length chunk then begin
          ignore (Queue.pop c.chunks);
          c.off <- 0
        end
        else c.off <- c.off + k;
        fill (pos + k)
      end
    in
    fill 0;
    c.len <- c.len - n;
    out
  end

let pending ep = ep.incoming.len

let endpoint_id ep = ep.id
