(* JSON for the vjs value domain: used by the JSON global inside the
   engine and by the host side of Isolate.call_json (structured values
   crossing the virtine data channel). *)

open Jsvalue

let rec stringify_impl (v : Jsvalue.t) : string =
  match v with
  | Undefined -> "null"
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num n -> if Float.is_finite n then number_to_string n else "null"
  | Str s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\t' -> Buffer.add_string buf "\\t"
          | '\r' -> Buffer.add_string buf "\\r"
          | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf
  | Arr v -> "[" ^ String.concat "," (List.map stringify_impl (vec_to_list v)) ^ "]"
  | Obj tbl ->
      let fields =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
        |> List.map (fun (k, v) -> stringify_impl (Str k) ^ ":" ^ stringify_impl v)
      in
      "{" ^ String.concat "," fields ^ "}"
  | Fun _ | Native _ -> "null"

let parse_impl (s : string) : Jsvalue.t =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Js_error ("JSON.parse: " ^ msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let rec value () : Jsvalue.t =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        let tbl = Hashtbl.create 8 in
        skip_ws ();
        if peek () = Some '}' then incr pos
        else begin
          let rec fields () =
            skip_ws ();
            let key = match value () with Str k -> k | _ -> fail "object key" in
            skip_ws ();
            expect ':';
            let v = value () in
            Hashtbl.replace tbl key v;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                fields ()
            | Some '}' -> incr pos
            | _ -> fail "expected , or }"
          in
          fields ()
        end;
        Obj tbl
    | Some '[' ->
        incr pos;
        let items = ref [] in
        skip_ws ();
        if peek () = Some ']' then incr pos
        else begin
          let rec elems () =
            items := value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' ->
                incr pos;
                elems ()
            | Some ']' -> incr pos
            | _ -> fail "expected , or ]"
          in
          elems ()
        end;
        Arr (vec_of_list (List.rev !items))
    | Some '"' ->
        incr pos;
        let buf = Buffer.create 16 in
        let rec str () =
          match peek () with
          | Some '"' -> incr pos
          | Some '\\' ->
              incr pos;
              (match peek () with
              | Some 'n' -> Buffer.add_char buf '\n'
              | Some 't' -> Buffer.add_char buf '\t'
              | Some 'r' -> Buffer.add_char buf '\r'
              | Some '"' -> Buffer.add_char buf '"'
              | Some '\\' -> Buffer.add_char buf '\\'
              | Some '/' -> Buffer.add_char buf '/'
              | _ -> fail "bad escape");
              incr pos;
              str ()
          | Some c ->
              Buffer.add_char buf c;
              incr pos;
              str ()
          | None -> fail "unterminated string"
        in
        str ();
        Str (Buffer.contents buf)
    | Some c when c = '-' || (c >= '0' && c <= '9') ->
        let start = !pos in
        if c = '-' then incr pos;
        while
          match peek () with
          | Some c -> (c >= '0' && c <= '9') || c = '.' || c = 'e' || c = 'E' || c = '+' || c = '-'
          | None -> false
        do
          incr pos
        done;
        (match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
    | Some 't' when !pos + 4 <= n && String.sub s !pos 4 = "true" ->
        pos := !pos + 4;
        Bool true
    | Some 'f' when !pos + 5 <= n && String.sub s !pos 5 = "false" ->
        pos := !pos + 5;
        Bool false
    | Some 'n' when !pos + 4 <= n && String.sub s !pos 4 = "null" ->
        pos := !pos + 4;
        Null
    | _ -> fail "unexpected input"
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing characters";
  v


let stringify = stringify_impl
let parse = parse_impl
