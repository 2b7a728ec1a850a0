exception Validation_failed

let max_transfer = 1 lsl 20
(* Cap single transfers at 1 MB: a hostile guest cannot ask the host to
   build multi-gigabyte buffers. *)

let clamp_len len = if len < 0 || len > max_transfer then raise Validation_failed else len

let guest_read_buf (inv : Inv.t) ~ptr ~len =
  let ptr = Int64.to_int ptr in
  let len = clamp_len len in
  try Vm.Memory.read_bytes inv.mem ~off:ptr ~len with Vm.Memory.Fault _ -> raise Validation_failed

let guest_write_buf (inv : Inv.t) ~ptr b =
  let ptr = Int64.to_int ptr in
  try Vm.Memory.write_bytes inv.mem ~off:ptr b with Vm.Memory.Fault _ -> raise Validation_failed

let guest_path (inv : Inv.t) ~ptr =
  let ptr = Int64.to_int ptr in
  try Vm.Memory.read_cstring inv.mem ~off:ptr ~max:4096
  with Vm.Memory.Fault _ -> raise Validation_failed

let charge (inv : Inv.t) cost =
  Cycles.Clock.advance_int inv.clock (Cycles.Costs.jitter inv.rng ~pct:0.08 cost)

let with_validation (inv : Inv.t) f =
  try f ()
  with Validation_failed ->
    inv.pointer_violations <- inv.pointer_violations + 1;
    Hc.err_fault

(* read(fd, buf, len): fd 0 is the connection; fd >= 3 are host files. *)
let h_read (inv : Inv.t) args =
  with_validation inv (fun () ->
      charge inv Cycles.Costs.host_read;
      let fd = Int64.to_int args.(0) in
      let ptr = args.(1) in
      let len = clamp_len (Int64.to_int args.(2)) in
      if fd = 0 then begin
        match inv.conn with
        | None -> Hc.err_badf
        | Some ep ->
            let data = Hostenv.recv ep ~max:len in
            guest_write_buf inv ~ptr data;
            Int64.of_int (Bytes.length data)
      end
      else begin
        match Hostenv.read_fd inv.env ~fd ~len with
        | None -> Hc.err_badf
        | Some data ->
            (* the guest write only reads the file's bytes *)
            guest_write_buf inv ~ptr (Bytes.unsafe_of_string data);
            Int64.of_int (String.length data)
      end)

(* write(fd, buf, len): fd 0 is the connection; 1 and 2 the console. *)
let h_write (inv : Inv.t) args =
  with_validation inv (fun () ->
      charge inv Cycles.Costs.host_write;
      let fd = Int64.to_int args.(0) in
      let data = guest_read_buf inv ~ptr:args.(1) ~len:(Int64.to_int args.(2)) in
      match fd with
      | 0 -> (
          match inv.conn with
          | None -> Hc.err_badf
          | Some ep -> Int64.of_int (Hostenv.send ep data))
      | 1 | 2 ->
          Buffer.add_bytes inv.console data;
          Int64.of_int (Bytes.length data)
      | _ -> Hc.err_badf)

let h_open (inv : Inv.t) args =
  with_validation inv (fun () ->
      charge inv Cycles.Costs.host_open;
      let path = guest_path inv ~ptr:args.(0) in
      match Hostenv.open_file inv.env ~path with
      | Some fd -> Int64.of_int fd
      | None -> Hc.err_noent)

let h_close (inv : Inv.t) args =
  charge inv Cycles.Costs.host_close;
  if Hostenv.close_fd inv.env ~fd:(Int64.to_int args.(0)) then 0L else Hc.err_badf

let h_stat (inv : Inv.t) args =
  with_validation inv (fun () ->
      charge inv Cycles.Costs.host_stat;
      let path = guest_path inv ~ptr:args.(0) in
      match Hostenv.file_size inv.env ~path with
      | Some size -> Int64.of_int size
      | None -> Hc.err_noent)

let h_send (inv : Inv.t) args =
  with_validation inv (fun () ->
      charge inv Cycles.Costs.host_send;
      match inv.conn with
      | None -> Hc.err_badf
      | Some ep ->
          let data = guest_read_buf inv ~ptr:args.(1) ~len:(Int64.to_int args.(2)) in
          Int64.of_int (Hostenv.send ep data))

let h_recv (inv : Inv.t) args =
  with_validation inv (fun () ->
      charge inv Cycles.Costs.host_recv;
      match inv.conn with
      | None -> Hc.err_badf
      | Some ep ->
          let max = clamp_len (Int64.to_int args.(2)) in
          let data = Hostenv.recv ep ~max in
          guest_write_buf inv ~ptr:args.(1) data;
          Int64.of_int (Bytes.length data))

let h_get_data (inv : Inv.t) args =
  with_validation inv (fun () ->
      if inv.got_data then Hc.err_inval
      else begin
        inv.got_data <- true;
        let max = clamp_len (Int64.to_int args.(1)) in
        let n = min max (Bytes.length inv.input) in
        let data = Bytes.sub inv.input 0 n in
        charge inv (Cycles.Costs.host_read + Cycles.Costs.memcpy_cost n);
        guest_write_buf inv ~ptr:args.(0) data;
        Int64.of_int n
      end)

let h_return_data (inv : Inv.t) args =
  with_validation inv (fun () ->
      if inv.returned_data then Hc.err_inval
      else begin
        inv.returned_data <- true;
        let data = guest_read_buf inv ~ptr:args.(0) ~len:(Int64.to_int args.(1)) in
        charge inv (Cycles.Costs.host_write + Cycles.Costs.memcpy_cost (Bytes.length data));
        inv.output <- Some data;
        Int64.of_int (Bytes.length data)
      end)

(* brk(delta): bump the guest heap break; returns the old break. *)
let h_brk (inv : Inv.t) args =
  let delta = Int64.to_int args.(0) in
  let old = inv.heap_brk in
  let proposed = old + delta in
  if proposed < 0 || proposed > Vm.Memory.size inv.mem then Hc.err_inval
  else begin
    inv.heap_brk <- proposed;
    Int64.of_int old
  end

let h_clock (inv : Inv.t) _args = Cycles.Clock.now inv.clock

let h_getrandom (inv : Inv.t) _args = Cycles.Rng.int64 inv.rng

let canned nr : Inv.handler option =
  if nr = Hc.read then Some h_read
  else if nr = Hc.write then Some h_write
  else if nr = Hc.open_ then Some h_open
  else if nr = Hc.close then Some h_close
  else if nr = Hc.stat then Some h_stat
  else if nr = Hc.send then Some h_send
  else if nr = Hc.recv then Some h_recv
  else if nr = Hc.get_data then Some h_get_data
  else if nr = Hc.return_data then Some h_return_data
  else if nr = Hc.brk then Some h_brk
  else if nr = Hc.clock then Some h_clock
  else if nr = Hc.getrandom then Some h_getrandom
  else None
