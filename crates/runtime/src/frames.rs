//! The interpreter frame chain deoptimization and exception unwinding hand
//! from compiled code to the interpreter.

use crate::{ObjRef, Value, VmError};
use pea_bytecode::MethodId;

/// One frame of a [`FrameChain`]: where it runs and how many of the
/// chain's slot values are its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    /// The executing method.
    pub method: MethodId,
    /// Next instruction to execute; an outer frame waits at its invoke.
    pub bci: u32,
    /// Local variable values, first among the frame's slots.
    pub locals: u32,
    /// Operand stack values, after the locals.
    pub operands: u32,
    /// The monitor the frame releases when it returns: the receiver of a
    /// deoptimized synchronized activation. Explicit `monitorenter` /
    /// `monitorexit` pairs are not listed — the bytecode itself releases
    /// those.
    pub monitor: Option<ObjRef>,
}

/// Interpreter frames rebuilt from a compiled frame state (paper §5.5),
/// outermost first: one [`FrameHeader`] per frame and every frame's slot
/// values, in order, in one buffer. Both compiled tiers fill it while
/// they rematerialize, and the interpreter lays each frame's slots out on
/// its value stack when it resumes or unwinds the chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameChain {
    frames: Vec<FrameHeader>,
    slots: Vec<Value>,
}

impl FrameChain {
    /// An empty chain with room for `frames` frames of `slots` values in
    /// all, so filling it allocates twice at most, however deep it is.
    pub fn with_capacity(frames: usize, slots: usize) -> Self {
        FrameChain {
            frames: Vec::with_capacity(frames),
            slots: Vec::with_capacity(slots),
        }
    }

    /// Opens a new innermost frame of `method` at `bci`, with no slots yet.
    pub fn push_frame(&mut self, method: MethodId, bci: u32) {
        self.frames.push(FrameHeader {
            method,
            bci,
            locals: 0,
            operands: 0,
            monitor: None,
        });
    }

    fn open(&mut self) -> &mut FrameHeader {
        self.frames.last_mut().expect("slots follow their frame")
    }

    /// Appends a local to the innermost frame; its locals come before its
    /// operands.
    pub fn push_local(&mut self, v: Value) {
        let frame = self.open();
        assert_eq!(frame.operands, 0, "a local pushed after an operand");
        frame.locals += 1;
        self.slots.push(v);
    }

    /// Appends an operand to the innermost frame's stack.
    pub fn push_operand(&mut self, v: Value) {
        self.open().operands += 1;
        self.slots.push(v);
    }

    /// Records a monitor the innermost frame holds. Only a synchronized
    /// method's own monitor (`method_monitor`) is kept: the frame releases
    /// it when it returns.
    ///
    /// # Errors
    ///
    /// [`VmError::Internal`] for a second method monitor in one frame.
    pub fn push_lock(&mut self, obj: ObjRef, method_monitor: bool) -> Result<(), VmError> {
        if !method_monitor {
            return Ok(());
        }
        let frame = self.open();
        if frame.monitor.is_some() {
            return Err(VmError::Internal(
                "a frame holds more than one method monitor".into(),
            ));
        }
        frame.monitor = Some(obj);
        Ok(())
    }

    /// Steps the innermost frame back from the state after its invoke onto
    /// the invoke itself, dropping the operand that stood in for the
    /// call's result when `returns`: the unwinder consults the handler
    /// ranges at the invoke.
    pub fn rewind_to_invoke(&mut self, returns: bool) {
        let frame = self.open();
        frame.bci = frame.bci.saturating_sub(1);
        if returns && frame.operands > 0 {
            frame.operands -= 1;
            self.slots.pop();
        }
    }

    /// The innermost frame: the code running when compiled code gave up.
    pub fn innermost(&self) -> Option<&FrameHeader> {
        self.frames.last()
    }

    /// Every frame, outermost first, with its locals and its operands.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&FrameHeader, &[Value], &[Value])> {
        let mut rest = &self.slots[..];
        self.frames.iter().map(move |frame| {
            let (locals, tail) = rest.split_at(frame.locals as usize);
            let (operands, tail) = tail.split_at(frame.operands as usize);
            rest = tail;
            (frame, locals, operands)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_method_monitor_is_an_internal_error() {
        let (a, b) = (ObjRef::from_index(0), ObjRef::from_index(1));
        let mut chain = FrameChain::default();
        chain.push_frame(MethodId(0), 0);
        // Explicit monitorenter pairs are not kept, however many.
        chain.push_lock(a, false).unwrap();
        chain.push_lock(b, false).unwrap();
        chain.push_lock(a, true).unwrap();
        assert_eq!(chain.innermost().unwrap().monitor, Some(a));
        match chain.push_lock(b, true) {
            Err(VmError::Internal(msg)) => {
                assert!(msg.contains("more than one method monitor"), "{msg}")
            }
            other => panic!("expected an internal error, got {other:?}"),
        }
        // The next frame holds its own.
        chain.push_frame(MethodId(1), 0);
        chain.push_lock(b, true).unwrap();
        assert_eq!(chain.innermost().unwrap().monitor, Some(b));
    }
}
