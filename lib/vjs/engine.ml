open Jsvalue

type t = {
  charge_cell : (int -> unit) ref;
  rt : Jscomp.rt;
  console : Buffer.t;
}

type compiled = { tokens : int; program : (Jscomp.program, string) result }

let charge_of t c = !(t.charge_cell) c

(* Calibrated so the baseline in Figure 14 lands near the paper's 419 us
   total: ~150 us alloc, ~12 us bindings, ~137 us parse+exec of the
   base64 workload, ~100 us teardown (cycles at 2.69 GHz). *)
let context_alloc_cycles = 400_000
let binding_cycles = 32_000
let teardown_cycles = 270_000
let parse_cycles_per_token = 45
let eval_cycles_per_node = Jscomp.cost_per_node

let num_method name f = Native (name, fun args ->
    match args with
    | v :: _ -> Num (f (to_number v))
    | [] -> Num Float.nan)

let install_builtins t =
  let global = Hashtbl.replace (Jscomp.globals t.rt) in
  let math = Hashtbl.create 8 in
  Hashtbl.replace math "floor" (num_method "floor" Float.floor);
  Hashtbl.replace math "ceil" (num_method "ceil" Float.ceil);
  Hashtbl.replace math "abs" (num_method "abs" Float.abs);
  Hashtbl.replace math "sqrt" (num_method "sqrt" Float.sqrt);
  Hashtbl.replace math "min"
    (Native ("min", fun args -> Num (List.fold_left (fun acc v -> min acc (to_number v)) Float.infinity args)));
  Hashtbl.replace math "max"
    (Native ("max", fun args -> Num (List.fold_left (fun acc v -> max acc (to_number v)) Float.neg_infinity args)));
  Hashtbl.replace math "pow"
    (Native ("pow", fun args ->
         match args with
         | a :: b :: _ -> Num (Float.pow (to_number a) (to_number b))
         | _ -> Num Float.nan));
  Hashtbl.replace math "PI" (Num Float.pi);
  global "Math" (Obj math);
  let string_obj = Hashtbl.create 4 in
  Hashtbl.replace string_obj "fromCharCode"
    (Native ("fromCharCode", fun args ->
         Str (String.concat ""
                (List.map (fun v -> String.make 1 (Char.chr (int_of_float (to_number v) land 0xFF))) args))));
  global "String" (Obj string_obj);
  global "parseInt"
    (Native ("parseInt", fun args ->
         match args with
         | v :: _ -> (
             let s = String.trim (to_string v) in
             (* parse the longest valid integer prefix *)
             let n = String.length s in
             let stop = ref 0 in
             let start = if n > 0 && (s.[0] = '-' || s.[0] = '+') then 1 else 0 in
             stop := start;
             while !stop < n && s.[!stop] >= '0' && s.[!stop] <= '9' do
               incr stop
             done;
             if !stop = start then Num Float.nan
             else
               match int_of_string_opt (String.sub s 0 !stop) with
               | Some i -> Num (float_of_int i)
               | None -> Num Float.nan)
         | [] -> Num Float.nan));
    let json = Hashtbl.create 2 in
  Hashtbl.replace json "stringify"
    (Native ("stringify", fun args ->
         match args with v :: _ -> Str (Json.stringify v) | [] -> Str "null"));
  Hashtbl.replace json "parse"
    (Native ("parse", fun args ->
         match args with
         | v :: _ -> Json.parse (to_string v)
         | [] -> raise (Js_error "JSON.parse: missing argument")));
  global "JSON" (Obj json);
  let print_fn =
    Native ("print", fun args ->
        Buffer.add_string t.console (String.concat " " (List.map to_string args));
        Buffer.add_char t.console '\n';
        Undefined)
  in
  global "print" print_fn;
  global "console_log" print_fn

let create ?(charge = fun _ -> ()) () =
  let cell = ref charge in
  let t =
    {
      charge_cell = cell;
      rt = Jscomp.create_rt ~charge:(fun c -> !cell c) ~max_steps:5_000_000;
      console = Buffer.create 64;
    }
  in
  charge context_alloc_cycles;
  install_builtins t;
  charge binding_cycles;
  t

let register t name f = Hashtbl.replace (Jscomp.globals t.rt) name (Native (name, f))

let syntax_error line msg = Printf.sprintf "SyntaxError (line %d): %s" line msg

let compile src =
  match Jslex.tokenize src with
  | exception Jslex.Error { line; msg } -> { tokens = 0; program = Error (syntax_error line msg) }
  | toks -> (
      let tokens = List.length toks in
      match Jsparse.parse toks with
      | exception Jsparse.Error { line; msg } -> { tokens; program = Error (syntax_error line msg) }
      | prog -> { tokens; program = Result.map_error Jscomp.error_message (Jscomp.program prog) })

let load t c =
  Jscomp.reset_steps t.rt;
  if c.tokens > 0 then charge_of t (c.tokens * parse_cycles_per_token);
  match c.program with Error msg -> Error msg | Ok prog -> Jscomp.run t.rt prog

let eval t src = load t (compile src)

let call t name args =
  Jscomp.reset_steps t.rt;
  match Hashtbl.find_opt (Jscomp.globals t.rt) name with
  | None -> Error (Printf.sprintf "ReferenceError: %s is not defined" name)
  | Some fv -> Jscomp.apply fv (Array.of_list args)

let destroy t = charge_of t teardown_cycles

let console_output t = Buffer.contents t.console

let set_charge t charge = t.charge_cell := charge
